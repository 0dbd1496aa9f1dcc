package spline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinearExactAtKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{1, 3, 2, 8}
	l, err := New(DegreeLinear, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := l.Eval(xs[i]); !almostEqual(got, ys[i], 1e-12) {
			t.Errorf("Eval(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
	if got := l.Eval(0.5); !almostEqual(got, 2, 1e-12) {
		t.Errorf("midpoint = %g, want 2", got)
	}
}

func TestLinearSortsInput(t *testing.T) {
	l, err := New(DegreeLinear, []float64{2, 0, 1}, []float64{4, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Eval(1.5); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Eval(1.5) = %g, want 3 (y = 2x)", got)
	}
}

func TestLinearRejectsDuplicates(t *testing.T) {
	if _, err := New(DegreeLinear, []float64{0, 0, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("duplicate knots accepted")
	}
}

// TestCheckKnotsSkipsSortOnlyWhenAscending: ascending knots, which skip
// the sort, give the same curve and the same duplicate-knot error text
// as a shuffle of them, which is sorted.
func TestCheckKnotsSkipsSortOnlyWhenAscending(t *testing.T) {
	xs := []float64{-3, -1, 0, 0.5, 2, 7, 11}
	ys := []float64{4, -2, 9, 1, 1, 6, -5}
	perm := rand.New(rand.NewSource(3)).Perm(len(xs))
	sx, sy := make([]float64, len(xs)), make([]float64, len(xs))
	for i, j := range perm {
		sx[i], sy[i] = xs[j], ys[j]
	}
	for _, deg := range []Degree{DegreeLinear, DegreeQuadratic, DegreeCubic, DegreeMonotoneCubic} {
		a, err := New(deg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(deg, sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		for x := -3.0; x <= 11; x += 0.25 {
			if va, vb := a.Eval(x), b.Eval(x); math.Float64bits(va) != math.Float64bits(vb) {
				t.Errorf("degree %d: Eval(%g) = %g ascending, %g shuffled", deg, x, va, vb)
			}
		}
	}
	const want = "spline: duplicate knot x = 2"
	for _, knots := range [][]float64{{0, 1, 2, 2, 3}, {3, 2, 0, 2, 1}} {
		_, err := New(DegreeLinear, knots, []float64{1, 2, 3, 4, 5})
		if err == nil || err.Error() != want {
			t.Errorf("knots %v: error %v, want %q", knots, err, want)
		}
	}
}

func TestLinearRejectsMismatch(t *testing.T) {
	if _, err := New(DegreeLinear, []float64{0, 1}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLinearRejectsNaN(t *testing.T) {
	if _, err := New(DegreeLinear, []float64{0, math.NaN()}, []float64{1, 2}); err == nil {
		t.Fatal("NaN knot accepted")
	}
}

func TestQuadraticReproducesParabola(t *testing.T) {
	// y = x^2 should be exact for a degree-2 interpolant.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	q, err := New(DegreeQuadratic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.3, 1.7, 2.5, 3.9} {
		if got := q.Eval(x); !almostEqual(got, x*x, 1e-10) {
			t.Errorf("Eval(%g) = %g, want %g", x, got, x*x)
		}
	}
}

func TestCubicExactAtKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 5}
	ys := []float64{0, 2, 1, 4, 3}
	s, err := New(DegreeCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := s.Eval(xs[i]); !almostEqual(got, ys[i], 1e-10) {
			t.Errorf("Eval(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestCubicReproducesLine(t *testing.T) {
	// A natural cubic spline through collinear points is the line itself.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	s, err := New(DegreeCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.25, 1.5, 2.9} {
		want := 1 + 2*x
		if got := s.Eval(x); !almostEqual(got, want, 1e-10) {
			t.Errorf("Eval(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestCubicNaturalBoundary(t *testing.T) {
	// Second derivative ~0 at the ends: check numerically.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 1, 0, 1, 0}
	s, err := New(DegreeCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-5
	d2lo := (s.Eval(0+2*h) - 2*s.Eval(0+h) + s.Eval(0)) / (h * h)
	if math.Abs(d2lo) > 1e-3 {
		t.Errorf("second derivative at left boundary = %g, want ~0", d2lo)
	}
}

func TestCubicC1Continuity(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 3, -1, 2, 5}
	s, err := New(DegreeCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-7
	for _, k := range []float64{1, 2, 3} {
		left := (s.Eval(k) - s.Eval(k-h)) / h
		right := (s.Eval(k+h) - s.Eval(k)) / h
		if math.Abs(left-right) > 1e-4 {
			t.Errorf("derivative jump at knot %g: left %g right %g", k, left, right)
		}
	}
}

func TestCubicInterpolationProperty(t *testing.T) {
	// Property: spline through random monotone data passes through all
	// knots and stays within a loose bound of the data range.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := 0.0
		for i := range xs {
			x += 0.1 + r.Float64()
			xs[i] = x
			ys[i] = r.NormFloat64() * 10
		}
		s, err := New(DegreeCubic, xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almostEqual(s.Eval(xs[i]), ys[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCubicKnotsCopies: New fits a copy of the samples, so mutating the
// caller's slices afterwards changes nothing.
func TestCubicKnotsCopies(t *testing.T) {
	xs, ys := []float64{0, 1, 2}, []float64{5, 6, 7}
	s, err := New(DegreeCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Eval(0.5)
	xs[0], ys[0] = 999, -999
	if lo, _ := s.Domain(); lo != 0 {
		t.Error("the curve shares the caller's knot slice")
	}
	if got := s.Eval(0.5); got != want {
		t.Errorf("Eval(0.5) = %g after mutating the inputs, was %g", got, want)
	}
}

func TestNewByDegree(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 4, 9}
	for _, deg := range []Degree{DegreeLinear, DegreeQuadratic, DegreeCubic} {
		itp, err := New(deg, xs, ys)
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		if got := itp.Eval(2); !almostEqual(got, 4, 1e-9) {
			t.Errorf("degree %d: Eval(2) = %g, want 4", deg, got)
		}
	}
	if _, err := New(Degree(7), xs, ys); err == nil {
		t.Error("degree 7 accepted")
	}
}

func TestDomain(t *testing.T) {
	l, _ := New(DegreeLinear, []float64{3, 1, 2}, []float64{0, 0, 0})
	lo, hi := l.Domain()
	if lo != 1 || hi != 3 {
		t.Errorf("Domain = (%g, %g), want (1, 3)", lo, hi)
	}
}

func TestCubicAccuracyBeatsLinear(t *testing.T) {
	// The paper chooses cubic "to maximise accuracy": verify on a smooth
	// function that cubic interpolation error < linear interpolation error.
	xs := make([]float64, 9)
	ys := make([]float64, 9)
	for i := range xs {
		xs[i] = float64(i) / 8 * math.Pi
		ys[i] = math.Sin(xs[i])
	}
	lin, _ := New(DegreeLinear, xs, ys)
	cub, _ := New(DegreeCubic, xs, ys)
	var errLin, errCub float64
	for x := 0.01; x < math.Pi; x += 0.01 {
		want := math.Sin(x)
		if e := math.Abs(lin.Eval(x) - want); e > errLin {
			errLin = e
		}
		if e := math.Abs(cub.Eval(x) - want); e > errCub {
			errCub = e
		}
	}
	if errCub >= errLin {
		t.Errorf("cubic max error %g not better than linear %g", errCub, errLin)
	}
}
