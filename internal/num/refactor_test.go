package num

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Diagonal boost keeps the random systems comfortably non-singular.
	for i := 0; i < n; i++ {
		m.Add(i, i, 4)
	}
	return m
}

// TestRefactorIntoExactReplay: reusing the pivots of a's own
// factorisation on a itself must reproduce the full factorisation
// bit-for-bit (the elimination performs the same fp operations in the
// same order, only without the search and swaps).
func TestRefactorIntoExactReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		a := randMatrix(rng, n)
		ref, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		f := NewLU(n)
		reused, err := f.RefactorInto(a, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reused {
			t.Fatalf("trial %d: pivots not reused on the reference matrix itself", trial)
		}
		for i := range ref.lu {
			if f.lu[i] != ref.lu[i] {
				t.Fatalf("trial %d: lu[%d] = %g, want %g (bit-exact)", trial, i, f.lu[i], ref.lu[i])
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		ref.Solve(b, x1)
		f.Solve(b, x2)
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("trial %d: solve differs at %d: %g vs %g", trial, i, x1[i], x2[i])
			}
		}
	}
}

// TestRefactorIntoPerturbed: small value perturbations keep the reused
// pivot order stable and the solves accurate.
func TestRefactorIntoPerturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	a := randMatrix(rng, n)
	ref, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	f := NewLU(n)
	reusedCount := 0
	for trial := 0; trial < 50; trial++ {
		p := a.Clone()
		for i := range p.Data {
			p.Data[i] *= 1 + 0.01*rng.NormFloat64()
		}
		reused, err := f.RefactorInto(p, ref)
		if err != nil {
			t.Fatal(err)
		}
		if reused {
			reusedCount++
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.Solve(b, x)
		// Residual check: ||P·x − b|| small.
		r := make([]float64, n)
		p.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				t.Fatalf("trial %d: residual %g at row %d", trial, math.Abs(r[i]-b[i]), i)
			}
		}
	}
	if reusedCount < 45 {
		t.Errorf("pivots reused only %d/50 times under 1%% perturbation", reusedCount)
	}
}

// TestRefactorIntoFallback: a matrix whose natural pivot order is
// catastrophically wrong for the reference pivots must fall back to
// full pivoting and still solve correctly.
func TestRefactorIntoFallback(t *testing.T) {
	// Reference: identity-dominant, pivots are the natural order.
	n := 4
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	ref, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	// New matrix: tiny leading pivot, needs a swap.
	p := NewMatrix(n)
	p.Set(0, 0, 1e-13)
	p.Set(0, 1, 1)
	p.Set(1, 0, 1)
	p.Set(1, 1, 1)
	p.Set(2, 2, 1)
	p.Set(3, 3, 1)
	f := NewLU(n)
	reused, err := f.RefactorInto(p, ref)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("reused an unstable pivot order")
	}
	b := []float64{1, 2, 3, 4}
	x := make([]float64, n)
	f.Solve(b, x)
	r := make([]float64, n)
	p.MulVec(x, r)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("fallback solve residual %g at row %d", math.Abs(r[i]-b[i]), i)
		}
	}
}

// TestRefactorIntoNoReference: nil or unfactored references degrade to
// a plain FactorInto.
func TestRefactorIntoNoReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 6)
	f := NewLU(6)
	if reused, err := f.RefactorInto(a, nil); err != nil || reused {
		t.Fatalf("nil ref: reused=%v err=%v", reused, err)
	}
	fresh := NewLU(6)
	g := NewLU(6)
	if reused, err := g.RefactorInto(a, fresh); err != nil || reused {
		t.Fatalf("unfactored ref: reused=%v err=%v", reused, err)
	}
	// Self-reference after a successful factorisation chains the reuse.
	if reused, err := f.RefactorInto(a, f); err != nil || !reused {
		t.Fatalf("self ref: reused=%v err=%v", reused, err)
	}
}

// TestCRefactorIntoExactReplay mirrors the real-field replay test over
// the complex field, where the refactorisation is the AC sweep's
// planned elimination: planning a dense system G + jω·C under the pivot
// order of its own factorisation must reproduce that factorisation and
// its solve bit for bit.
func TestCRefactorIntoExactReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 10
	g := NewMatrix(n)
	var caps []CapTerm
	a := NewCMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			if i == j {
				re += 5
			}
			g.Set(i, j, re)
			caps = append(caps, CapTerm{i, j, im})
			a.Set(i, j, complex(re, im)) // ω = 1: 0 + 1·im is im exactly
		}
	}
	ref, err := CFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	var p CPlan
	p.Build(ref, g, caps)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]complex128, n)
	if !p.Solve(1, b, x) {
		t.Fatal("the plan declined the reference matrix itself")
	}
	for i := range ref.lu {
		if p.f.lu[i] != ref.lu[i] {
			t.Fatalf("lu[%d] = %v, want %v (bit-exact)", i, p.f.lu[i], ref.lu[i])
		}
	}
	bc := make([]complex128, n)
	for i, v := range b {
		bc[i] = complex(v, 0)
	}
	want := make([]complex128, n)
	ref.Solve(bc, want)
	for i := range want {
		if !sameComplex(x[i], want[i]) {
			t.Fatalf("solve differs at %d: %v vs %v", i, x[i], want[i])
		}
	}
}

// TestCRefactorIntoFallback mirrors the fallback test over the complex
// field: the plan declines a matrix whose natural pivot order is
// catastrophically wrong for the reference pivots, and a plan without a
// valid reference declines every point.
func TestCRefactorIntoFallback(t *testing.T) {
	n := 3
	a := NewCMatrix(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	ref, err := CFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	g := NewMatrix(n)
	g.Set(0, 0, 1e-13)
	g.Set(0, 1, 1)
	g.Set(1, 0, 1)
	g.Set(1, 1, 1)
	g.Set(2, 2, 1)
	b, x := []float64{1, 2, 3}, make([]complex128, n)
	var p CPlan
	p.Build(ref, g, nil)
	if p.Solve(1, b, x) {
		t.Error("reused an unstable pivot order")
	}
	for i, bad := range []*CLU{nil, NewCLU(n)} { // none, unfactored
		p.Build(bad, g, nil)
		if p.Solve(1, b, x) {
			t.Errorf("plan on bad reference %d solved a point", i)
		}
	}
	p.Build(ref, NewMatrix(n+1), nil)
	if p.Solve(1, append(b, 4), append(x, 0)) {
		t.Error("plan on a reference of another order solved a point")
	}
}
