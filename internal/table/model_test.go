package table

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"analogyield/internal/spline"
)

func cubicErr() Control { return Control{Degree: spline.DegreeCubic, Extrap: ExtrapError} }

func TestModel1DInterpolates(t *testing.T) {
	m := MustModel1D([]float64{0, 1, 2, 3}, []float64{0, 1, 4, 9}, cubicErr())
	got, err := m.Eval(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.25) > 0.2 {
		t.Errorf("Eval(1.5) = %g, want ~2.25", got)
	}
}

func TestModel1DErrorExtrap(t *testing.T) {
	m := MustModel1D([]float64{0, 1, 2}, []float64{0, 1, 2}, cubicErr())
	if _, err := m.Eval(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if _, err := m.Eval(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange below range, got %v", err)
	}
}

func TestModel1DClampExtrap(t *testing.T) {
	m := MustModel1D([]float64{0, 1, 2}, []float64{0, 1, 2},
		Control{Degree: spline.DegreeLinear, Extrap: ExtrapClamp})
	got, err := m.Eval(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("clamped Eval(10) = %g, want 2", got)
	}
}

func TestModel1DLinearExtrap(t *testing.T) {
	m := MustModel1D([]float64{0, 1, 2}, []float64{0, 2, 4},
		Control{Degree: spline.DegreeLinear, Extrap: ExtrapLinear})
	got, err := m.Eval(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 1e-6 {
		t.Errorf("linear extrap Eval(3) = %g, want 6", got)
	}
	got, err = m.Eval(-1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got+2) > 1e-6 {
		t.Errorf("linear extrap Eval(-1) = %g, want -2", got)
	}
}

func TestModel1DRejectsIgnore(t *testing.T) {
	if _, err := NewModel1D([]float64{0, 1}, []float64{0, 1}, Control{Ignore: true}); err == nil {
		t.Fatal("Ignore control accepted for 1-D model")
	}
}

func TestCurveModel2DOnFront(t *testing.T) {
	// Synthetic Pareto-like front: x2 decreases as x1 increases;
	// output is a smooth function along the front.
	var x1s, x2s, ys []float64
	for i := 0; i <= 20; i++ {
		g := 45 + float64(i)*0.5 // "gain"
		p := 85 - float64(i)*0.7 // "pm"
		x1s = append(x1s, g)
		x2s = append(x2s, p)
		ys = append(ys, 10+0.3*g-0.1*p)
	}
	m, err := NewCurveModel2D(x1s, x2s, ys, cubicErr(), cubicErr())
	if err != nil {
		t.Fatal(err)
	}
	// Query exactly on a sample.
	got, err := m.Eval(x1s[7], x2s[7])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-ys[7]) > 1e-6 {
		t.Errorf("Eval on sample = %g, want %g", got, ys[7])
	}
	// Query between samples, on the front.
	gq := 0.5 * (x1s[7] + x1s[8])
	pq := 0.5 * (x2s[7] + x2s[8])
	got, err = m.Eval(gq, pq)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 0.3*gq - 0.1*pq
	if math.Abs(got-want) > 0.05 {
		t.Errorf("Eval between samples = %g, want ~%g", got, want)
	}
}

func TestCurveModel2DFarQueryErrors(t *testing.T) {
	x1s := []float64{0, 1, 2, 3}
	x2s := []float64{3, 2, 1, 0}
	ys := []float64{0, 1, 2, 3}
	m, err := NewCurveModel2D(x1s, x2s, ys, cubicErr(), cubicErr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Eval(10, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("far query: want ErrOutOfRange, got %v", err)
	}
}

func TestCurveModel2DClampAcceptsFarQuery(t *testing.T) {
	x1s := []float64{0, 1, 2, 3}
	x2s := []float64{3, 2, 1, 0}
	ys := []float64{0, 1, 2, 3}
	cl := Control{Degree: spline.DegreeCubic, Extrap: ExtrapClamp}
	m, err := NewCurveModel2D(x1s, x2s, ys, cl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Eval(10, 10); err != nil {
		t.Fatalf("clamp mode should not error: %v", err)
	}
}

func TestCurveModel2DProjectRecoversParameter(t *testing.T) {
	var x1s, x2s, ys []float64
	for i := 0; i <= 10; i++ {
		x1s = append(x1s, float64(i))
		x2s = append(x2s, 10-float64(i))
		ys = append(ys, float64(i)*2)
	}
	m, err := NewCurveModel2D(x1s, x2s, ys, cubicErr(), cubicErr())
	if err != nil {
		t.Fatal(err)
	}
	u, dist := m.Project(5, 5)
	if dist > 1e-6 {
		t.Errorf("distance to on-curve point = %g", dist)
	}
	hint := -1
	if got := m.EvalAtHint(u, &hint); math.Abs(got-10) > 1e-3 {
		t.Errorf("EvalAtHint(Project) = %g, want 10", got)
	}
}

func TestCurveModel2DDedupsAndSorts(t *testing.T) {
	x1s := []float64{2, 0, 1, 2} // duplicate x1 = 2
	x2s := []float64{0, 2, 1, 0}
	ys := []float64{4, 0, 2, 4}
	m, err := NewCurveModel2D(x1s, x2s, ys, cubicErr(), cubicErr())
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3 after dedup", m.Len())
	}
}

func TestCurveModel2DRejectsTiny(t *testing.T) {
	if _, err := NewCurveModel2D([]float64{0, 1}, []float64{0, 1}, []float64{0, 1},
		cubicErr(), cubicErr()); err == nil {
		t.Fatal("2-point curve accepted")
	}
}

// refProject is Project without the precomputed grid: the coarse scan
// evaluates X1(u) and X2(u) at all 257 grid points, and every
// evaluation locates its segment with a fresh binary search.
func refProject(m *CurveModel2D, x1, x2 float64) (u, dist float64) {
	f := m.f
	dist2 := func(u float64) float64 {
		d1 := (f.fx1.Eval(u) - x1) / f.span1
		d2 := (f.fx2.Eval(u) - x2) / f.span2
		return d1*d1 + d2*d2
	}
	const n = 256
	bestU, bestD := 0.0, math.Inf(1)
	for i := 0; i <= n; i++ {
		uu := float64(i) / n
		if d := dist2(uu); d < bestD {
			bestD, bestU = d, uu
		}
	}
	lo := math.Max(0, bestU-1.5/n)
	hi := math.Min(1, bestU+1.5/n)
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := dist2(c), dist2(d)
	for i := 0; i < 60; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = dist2(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = dist2(d)
		}
	}
	u = 0.5 * (a + b)
	if bd := dist2(u); bd < bestD {
		bestD = bd
		bestU = u
	}
	return bestU, math.Sqrt(bestD)
}

// TestCurveModel2DProjectMatchesDirectScan: the grid and segment hints
// are an evaluation strategy only; the projection and every output
// value must equal the direct scan bit for bit, and an output fitted on
// a shared front (WithOutput) must equal one built from scratch.
func TestCurveModel2DProjectMatchesDirectScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(60)
		x1s, x2s, y1, y2 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x1s {
			x1s[i] = float64(rng.Intn(3 * n)) // unsorted, with duplicates
			x2s[i] = 100 - x1s[i] + rng.NormFloat64()
			y1[i], y2[i] = rng.NormFloat64(), rng.ExpFloat64()
		}
		for _, deg := range []spline.Degree{spline.DegreeLinear, spline.DegreeMonotoneCubic, spline.DegreeCubic} {
			c := Control{Degree: deg, Extrap: ExtrapError}
			m1, err := NewCurveModel2D(x1s, x2s, y1, c, c)
			if err != nil {
				continue // too few distinct x1 for this draw
			}
			shared, err := m1.WithOutput(y2)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCurveModel2D(x1s, x2s, y2, c, c)
			if err != nil {
				t.Fatal(err)
			}
			lo1, hi1 := minMax(x1s)
			lo2, hi2 := minMax(x2s)
			hint := -1
			for i := 0; i < 100; i++ {
				q1 := lo1 + (hi1-lo1)*(rng.Float64()*1.4-0.2)
				q2 := lo2 + (hi2-lo2)*(rng.Float64()*1.4-0.2)
				u, dist := m1.Project(q1, q2)
				ru, rdist := refProject(m1, q1, q2)
				if math.Float64bits(u) != math.Float64bits(ru) || math.Float64bits(dist) != math.Float64bits(rdist) {
					t.Fatalf("degree %d: Project(%g, %g) = (%v, %v), direct scan (%v, %v)", deg, q1, q2, u, dist, ru, rdist)
				}
				got := shared.EvalAtHint(u, &hint)
				if want := fresh.fy.Eval(u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("degree %d: shared-front output at u=%v is %v, fresh model %v", deg, u, got, want)
				}
			}
			if slo, shi := shared.OutputRange(); slo != fresh.ylo || shi != fresh.yhi {
				t.Fatalf("degree %d: shared output range (%g, %g), fresh (%g, %g)", deg, slo, shi, fresh.ylo, fresh.yhi)
			}
		}
	}
}
