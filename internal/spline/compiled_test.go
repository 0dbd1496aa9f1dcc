package spline

import (
	"math"
	"math/rand"
	"testing"
)

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

// TestCompiledBitIdentical is the compiled-path contract: for every
// supported interpolator kind, Compiled.Eval must reproduce the
// interpreted Eval bit for bit — including exactly-on-knot queries,
// where the binary search's boundary convention decides which segment
// evaluates — whatever hint the caller supplies.
func TestCompiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		xs, ys := randomKnots(rng, 3+rng.Intn(60))
		builders := map[string]func() (Interpolator, error){
			"linear": func() (Interpolator, error) { return NewLinear(xs, ys) },
			"cubic":  func() (Interpolator, error) { return NewCubic(xs, ys) },
			"pchip":  func() (Interpolator, error) { return NewPCHIP(xs, ys) },
		}
		for name, build := range builders {
			itp, err := build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c, err := Compile(itp)
			if err != nil {
				t.Fatalf("Compile(%s): %v", name, err)
			}
			lo, hi := itp.Domain()
			if clo, chi := c.Domain(); clo != lo || chi != hi {
				t.Fatalf("%s: Domain = (%g,%g), want (%g,%g)", name, clo, chi, lo, hi)
			}
			hint := -1
			check := func(x float64) {
				want := itp.Eval(x)
				if got := c.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Eval(%g) = %g, interpreted %g", name, x, got, want)
				}
				var got float64
				got, hint = c.EvalHint(x, hint)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: EvalHint(%g) = %g, interpreted %g", name, x, got, want)
				}
				// Any hint, however wrong, must not change the result.
				if got, _ := c.EvalHint(x, rng.Intn(len(xs)+4)-2); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: EvalHint(%g, bad hint) = %g, interpreted %g", name, x, got, want)
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
		itp, err := NewLinear(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(itp)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := c.Domain()
		for i := 0; i < 200; i++ {
			x := lo + (hi-lo)*(rng.Float64()*1.4-0.2)
			if i%3 == 0 {
				x = xs[rng.Intn(len(xs))] // exact knot
			}
			want := segment(xs, x)
			for hint := -2; hint <= len(xs); hint++ {
				if got := c.Segment(x, hint); got != want {
					t.Fatalf("Segment(%g, hint %d) = %d, want %d (knots %v)", x, hint, got, want, xs)
				}
			}
		}
	}
}

func TestCompileUnsupported(t *testing.T) {
	xs, ys := randomKnots(rand.New(rand.NewSource(5)), 8)
	q, err := NewQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q); err == nil {
		t.Fatal("Compile(Quadratic) succeeded, want error")
	}
}
