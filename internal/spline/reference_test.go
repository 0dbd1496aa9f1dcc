package spline

import (
	"math"
	"math/rand"
	"testing"
)

// refEval is the test reference for Curve: one plain evaluator per
// degree, each locating its segment with a fresh binary search.
// Curve.Eval and Curve.EvalHint must reproduce it bit for bit.
func refEval(s *Curve, x float64) float64 {
	switch s.deg {
	case DegreeLinear:
		i := segment(s.xs, x)
		t := (x - s.xs[i]) / (s.xs[i+1] - s.xs[i])
		return s.ys[i] + t*(s.ys[i+1]-s.ys[i])
	case DegreeQuadratic:
		i := segment(s.xs, x)
		j := i
		if j > 0 {
			j--
		}
		if j > len(s.xs)-3 {
			j = len(s.xs) - 3
		}
		x0, x1, x2 := s.xs[j], s.xs[j+1], s.xs[j+2]
		y0, y1, y2 := s.ys[j], s.ys[j+1], s.ys[j+2]
		l0 := (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
		l1 := (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
		l2 := (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1))
		return y0*l0 + y1*l1 + y2*l2
	case DegreeCubic:
		i := segment(s.xs, x)
		dx := x - s.xs[i]
		return ((s.a[i]*dx+s.b[i])*dx+s.c[i])*dx + s.d[i]
	case DegreeMonotoneCubic:
		i := segment(s.xs, x)
		h := s.xs[i+1] - s.xs[i]
		t := (x - s.xs[i]) / h
		h00 := (1 + 2*t) * (1 - t) * (1 - t)
		h10 := t * (1 - t) * (1 - t)
		h01 := t * t * (3 - 2*t)
		h11 := t * t * (t - 1)
		return h00*s.ys[i] + h10*h*s.ms[i] + h01*s.ys[i+1] + h11*h*s.ms[i+1]
	}
	panic("refEval: unknown degree")
}

// mustNew fits a curve or fails the test.
func mustNew(t testing.TB, deg Degree, xs, ys []float64) *Curve {
	t.Helper()
	c, err := New(deg, xs, ys)
	if err != nil {
		t.Fatalf("New(%d): %v", deg, err)
	}
	return c
}

// randomKnots builds n sorted, distinct knots with wildly uneven
// spacing, the regime where segment lookups and spline arithmetic are
// most sensitive.
func randomKnots(rng *rand.Rand, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	x := rng.Float64() * 10
	for i := 0; i < n; i++ {
		x += 1e-3 + rng.Float64()*math.Pow(10, rng.Float64()*3-1)
		xs[i] = x
		ys[i] = rng.NormFloat64() * 100
	}
	return xs, ys
}

// TestCompiledBitIdentical is the curve type's contract: for every
// degree, Eval and EvalHint must reproduce the per-degree reference bit
// for bit — including exactly-on-knot queries, where the binary search's
// boundary convention decides which segment evaluates — whatever hint
// the caller supplies.
func TestCompiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		xs, ys := randomKnots(rng, 3+rng.Intn(60))
		for _, deg := range []Degree{DegreeLinear, DegreeQuadratic, DegreeCubic, DegreeMonotoneCubic} {
			c := mustNew(t, deg, xs, ys)
			lo, hi := c.Domain()
			if lo != xs[0] || hi != xs[len(xs)-1] {
				t.Fatalf("degree %d: Domain = (%g,%g), want (%g,%g)", deg, lo, hi, xs[0], xs[len(xs)-1])
			}
			hint := -1
			check := func(x float64) {
				want := refEval(c, x)
				if got := c.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("degree %d: Eval(%g) = %g, reference %g", deg, x, got, want)
				}
				var got float64
				got, hint = c.EvalHint(x, hint)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("degree %d: EvalHint(%g) = %g, reference %g", deg, x, got, want)
				}
				// Any hint, however wrong, must not change the result.
				if got, _ := c.EvalHint(x, rng.Intn(len(xs)+4)-2); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("degree %d: EvalHint(%g, bad hint) = %g, reference %g", deg, x, got, want)
				}
			}
			for _, x := range xs { // exact knot hits
				check(x)
			}
			for i := 0; i < 200; i++ { // interior, clustered, and out-of-range
				check(lo + (hi-lo)*(rng.Float64()*1.2-0.1))
			}
		}
	}
}

// TestCompiledSegmentMatchesSearch pins the hint fast path to the
// binary-search convention for every hint value.
func TestCompiledSegmentMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		xs, ys := randomKnots(rng, 2+rng.Intn(20))
		c := mustNew(t, DegreeLinear, xs, ys)
		lo, hi := c.Domain()
		for i := 0; i < 200; i++ {
			x := lo + (hi-lo)*(rng.Float64()*1.4-0.2)
			if i%3 == 0 {
				x = xs[rng.Intn(len(xs))] // exact knot
			}
			want := segment(xs, x)
			for hint := -2; hint <= len(xs); hint++ {
				if got := c.segmentHint(x, hint); got != want {
					t.Fatalf("segmentHint(%g, hint %d) = %d, want %d (knots %v)", x, hint, got, want, xs)
				}
			}
		}
	}
}
