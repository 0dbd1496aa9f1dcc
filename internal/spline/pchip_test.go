package spline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPCHIPExactAtKnots(t *testing.T) {
	xs := []float64{0, 1, 3, 4, 7}
	ys := []float64{2, 5, 1, 1, 9}
	p, err := New(DegreeMonotoneCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := p.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestPCHIPReproducesLine(t *testing.T) {
	p, err := New(DegreeMonotoneCubic, []float64{0, 1, 2, 5}, []float64{1, 3, 5, 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1.7, 3.9} {
		want := 1 + 2*x
		if got := p.Eval(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("Eval(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestPCHIPTwoPoints(t *testing.T) {
	p, err := New(DegreeMonotoneCubic, []float64{0, 2}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("two-point Eval(1) = %g, want 2", got)
	}
}

func TestPCHIPMonotonePreservation(t *testing.T) {
	// Monotone data stays monotone between every pair of knots — the
	// property natural cubic splines lack.
	xs := []float64{0, 1, 1.1, 5, 5.1, 10}
	ys := []float64{0, 1, 1.2, 1.3, 4, 5} // monotone, very uneven
	p, err := New(DegreeMonotoneCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.Eval(0)
	for x := 0.01; x <= 10; x += 0.01 {
		v := p.Eval(x)
		if v < prev-1e-9 {
			t.Fatalf("PCHIP not monotone at x=%g: %g < %g", x, v, prev)
		}
		prev = v
	}
	// Natural cubic through the same data overshoots; demonstrate the
	// contrast that motivates PCHIP for front tables.
	c, err := New(DegreeCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	overshoot := false
	for x := 0.01; x <= 10; x += 0.01 {
		if v := c.Eval(x); v < -1e-6 || v > 5+1e-6 {
			overshoot = true
			break
		}
	}
	if !overshoot {
		t.Log("natural cubic did not overshoot on this data (unexpected but not a failure)")
	}
}

func TestPCHIPStaysInDataHullProperty(t *testing.T) {
	// Property: for monotone random data, PCHIP never leaves [min, max].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x, y := 0.0, 0.0
		for i := range xs {
			x += 0.05 + r.Float64()*3
			y += r.Float64() * 5
			xs[i] = x
			ys[i] = y
		}
		p, err := New(DegreeMonotoneCubic, xs, ys)
		if err != nil {
			return false
		}
		lo, hi := ys[0], ys[n-1]
		for i := 0; i <= 300; i++ {
			xx := xs[0] + (xs[n-1]-xs[0])*float64(i)/300
			v := p.Eval(xx)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPCHIPLocalExtremumFlat(t *testing.T) {
	// At a local extremum knot the derivative must be zero: no spurious
	// bumps past the peak.
	p, err := New(DegreeMonotoneCubic, []float64{0, 1, 2}, []float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Eval(1.01); v > 1 {
		t.Errorf("overshoot past peak: %g", v)
	}
	if v := p.Eval(0.99); v > 1 {
		t.Errorf("overshoot before peak: %g", v)
	}
}

func TestPCHIPViaNew(t *testing.T) {
	itp, err := New(DegreeMonotoneCubic, []float64{0, 1, 2}, []float64{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if itp.deg != DegreeMonotoneCubic || len(itp.ms) != 3 {
		t.Fatalf("New(DegreeMonotoneCubic) fitted degree %d with %d slopes", itp.deg, len(itp.ms))
	}
	lo, hi := itp.Domain()
	if lo != 0 || hi != 2 {
		t.Error("domain wrong")
	}
}

func TestPCHIPRejectsBadInput(t *testing.T) {
	if _, err := New(DegreeMonotoneCubic, []float64{0}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := New(DegreeMonotoneCubic, []float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("duplicate knots accepted")
	}
}
