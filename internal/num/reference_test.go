package num

import (
	"math"
	"math/rand"
	"testing"
)

// The dense refactorisation below is CLU.RefactorInto and CLU.Solve as
// they stood before the AC sweep planned its elimination: every
// frequency point replayed the reference pivot order over the whole
// matrix, falling back to FactorInto when a stability check failed.
// CPlan.Solve, with the dense FactorInto the sweep runs when it
// declines, must reproduce it bit for bit (NaNs as one class).

func (f *CLU) refactorIntoRef(a *CMatrix, ref *CLU) (reused bool, err error) {
	n := a.N
	if ref == nil || !ref.ok || ref.n != n {
		return false, f.FactorInto(a)
	}
	piv := ref.piv
	f.resize(n)
	f.ok = false
	lu := f.lu
	for i := 0; i < n; i++ {
		copy(lu[i*n:i*n+n], a.Data[piv[i]*n:piv[i]*n+n])
	}
	maxU, maxPiv := 0.0, 0.0
	var div cDivisor
	for k := 0; k < n; k++ {
		rowK := lu[k*n : k*n+n]
		for _, v := range rowK[k:] {
			if av := cAbs1(v); av > maxU {
				maxU = av
			}
		}
		pivot := rowK[k]
		pa := cAbs1(pivot)
		if !(pa > 0) {
			return false, f.FactorInto(a) // zero or NaN pivot
		}
		if pa > maxPiv {
			maxPiv = pa
		}
		div.set(pivot)
		for i := k + 1; i < n; i++ {
			l := div.quo(lu[i*n+k])
			if !(cAbs1(l) <= MultLimit) {
				return false, f.FactorInto(a) // unstable (or NaN) multiplier
			}
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	if !(maxU <= GrowthLimit*maxPiv) {
		return false, f.FactorInto(a) // runaway element growth
	}
	if f != ref {
		copy(f.piv, piv)
	}
	f.ok = true
	return true, nil
}

func (f *CLU) solveRef(b, x []complex128) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("num: CLU.Solve dimension mismatch")
	}
	if len(f.y) < n {
		f.y = make([]complex128, n)
	}
	y := f.y[:n]
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+n]
		s := y[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n : i*n+n]
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	copy(x, y)
}

// recording is an AC recording built the way the circuit package's
// ACCtx builds one: G and the stimulus accumulated from +0 (so neither
// holds −0) and the capacitive terms in stamp order.
type recording struct {
	g    *Matrix
	caps []CapTerm
	b    []float64
}

// assemble is ACCtx.Assemble: a = G + jω·C with the terms added in
// stamp order, b = B.
func (r *recording) assemble(omega float64, a *CMatrix, b []complex128) {
	for k, g := range r.g.Data {
		a.Data[k] = complex(g, 0)
	}
	for i, v := range r.b {
		b[i] = complex(v, 0)
	}
	for _, t := range r.caps {
		a.Add(t.I, t.J, complex(0, float64(omega*t.C)))
	}
}

// conductance stamps g between rows i and j, or from i to ground when
// they are equal.
func (r *recording) conductance(i, j int, g float64) {
	r.g.Add(i, i, g)
	if i != j {
		r.g.Add(j, j, g)
		r.g.Add(i, j, -g)
		r.g.Add(j, i, -g)
	}
}

// capacitance stamps c between rows i and j like conductance.
func (r *recording) capacitance(i, j int, c float64) {
	r.caps = append(r.caps, CapTerm{i, i, c})
	if i != j {
		r.caps = append(r.caps, CapTerm{j, j, c}, CapTerm{i, j, -c}, CapTerm{j, i, -c})
	}
}

// sweepCounts tallies what a checked sweep ran into.
type sweepCounts struct {
	points    int // frequency points compared
	declined  int // points the plan declined (a stability check failed)
	nonFinite int // points solved on the plan with a non-finite component
	singular  int // points whose fresh factorisation failed too
	refFailed int // sweeps whose reference factorisation failed
}

// sameComplex compares both parts with sameOrNaN (divisor_test.go): bit
// for bit, with every NaN in one class.
func sameComplex(a, b complex128) bool {
	return sameOrNaN(real(a), real(b)) && sameOrNaN(imag(a), imag(b))
}

// checkSweep solves rec at every omega two ways — the dense replay of
// the reference order the sweep ran before (refactorIntoRef, solveRef)
// and the sweep's planned path (CPlan.Solve, and FactorInto when it
// declines) — and fails unless every solution component carries the
// same bits. The reference factorises the first point, as in
// analysis.ACPrefix.
func checkSweep(t *testing.T, rec *recording, omegas []float64, c *sweepCounts) {
	t.Helper()
	n := rec.g.N
	a, bc := NewCMatrix(n), make([]complex128, n)
	rec.assemble(omegas[0], a, bc)
	ref := NewCLU(n)
	if ref.FactorInto(a) != nil {
		c.refFailed++
		return
	}
	var plan CPlan
	plan.Build(ref, rec.g, rec.caps)
	dense, fresh := NewCLU(n), NewCLU(n)
	want, got := make([]complex128, n), make([]complex128, n)
	for _, w := range omegas {
		rec.assemble(w, a, bc)
		_, werr := dense.refactorIntoRef(a, ref)
		onPlan := plan.Solve(w, rec.b, got)
		var gerr error
		if !onPlan {
			c.declined++
			if gerr = fresh.FactorInto(a); gerr == nil {
				fresh.Solve(bc, got)
			}
		}
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("n=%d ω=%g: dense replay error %v, planned path error %v", n, w, werr, gerr)
		}
		c.points++
		if werr != nil {
			c.singular++
			continue
		}
		dense.solveRef(bc, want)
		finite := true
		for i := range want {
			if !sameComplex(got[i], want[i]) {
				t.Fatalf("n=%d ω=%g (on plan: %v): x[%d] = %v (%#x, %#x), dense replay %v (%#x, %#x)",
					n, w, onPlan, i, got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
					want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
			}
			finite = finite && cFinite(got[i])
		}
		if onPlan && !finite {
			c.nonFinite++
		}
	}
}

// sweepOmegas spans the AC grids the analyses sweep, plus extremes that
// underflow and overflow the capacitive admittances.
var sweepOmegas = []float64{
	2 * math.Pi * 1e3, 2 * math.Pi, 2 * math.Pi * 1e6, 2 * math.Pi * 1e9,
	2 * math.Pi * 3.7e4, 1e-200, 1e200,
}

// capCoefficient draws a capacitive coefficient: circuit-sized, or
// with specials also sometimes ±Inf, NaN, zero, subnormal or huge.
func capCoefficient(rng *rand.Rand, specials bool) float64 {
	if !specials {
		return math.Ldexp(1+rng.Float64(), -rng.Intn(40)-10)
	}
	switch rng.Intn(60) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.NaN()
	case 3:
		return 5e-324 * float64(1+rng.Intn(1000))
	case 4:
		return 1e300 * rng.NormFloat64()
	case 5:
		return 0
	}
	return math.Ldexp(1+rng.Float64(), -rng.Intn(40)-10)
}

// randomRecording draws an order-n recording shaped like an MNA
// system: conductances, single transconductance and branch entries,
// capacitances and single capacitive terms, over a sparse random
// topology, with a small conductance to ground on every row, or with
// specials on most rows (see capCoefficient).
func randomRecording(rng *rand.Rand, n int, specials bool) *recording {
	rec := &recording{g: NewMatrix(n), b: make([]float64, n)}
	row := func() int { return rng.Intn(n) }
	for k := 0; k < 2*n+rng.Intn(2*n+1); k++ {
		i, j := row(), row()
		switch rng.Intn(6) {
		case 0, 1:
			rec.conductance(i, j, math.Ldexp(1+rng.Float64(), -rng.Intn(30)))
		case 2:
			rec.g.Add(i, j, rng.NormFloat64()*math.Ldexp(1, -rng.Intn(20)))
		case 3, 4:
			rec.capacitance(i, j, capCoefficient(rng, specials))
		case 5:
			rec.caps = append(rec.caps, CapTerm{i, j, capCoefficient(rng, specials)})
		}
	}
	// A tiny conductance to ground on the rows, as analysis's
	// linearisation adds to every node, keeps most draws solvable.
	for i := 0; i < n; i++ {
		if !specials || rng.Intn(16) != 0 {
			rec.g.Add(i, i, 1e-12)
		}
	}
	rec.b[row()] += 1
	if rng.Intn(3) == 0 {
		rec.b[row()] -= rng.NormFloat64()
	}
	return rec
}

// nearTie is a recording whose first column holds two candidates that
// swap places across the sweep: partial pivoting at the first point
// picks row 1 by a hair, and the reused order then meets multipliers
// just above 1 (kept) or far above MultLimit (declined).
func nearTie(eps, c float64) *recording {
	rec := &recording{g: NewMatrix(3), b: []float64{1, 0, 0.5}}
	rec.g.Add(0, 0, 1)
	rec.g.Add(1, 0, 1+eps)
	rec.g.Add(0, 1, 1)
	rec.g.Add(1, 1, 2)
	rec.g.Add(2, 2, 1)
	rec.g.Add(2, 0, 0.5)
	rec.caps = append(rec.caps, CapTerm{0, 0, c}, CapTerm{1, 1, c}, CapTerm{1, 0, -c})
	return rec
}

// zeroPivot is a recording whose only entry in row 1 is capacitive and
// tiny: at a small enough ω it underflows to +0, the reused pivot is
// zero and the fresh factorisation finds the matrix singular.
func zeroPivot() *recording {
	rec := &recording{g: NewMatrix(2), b: []float64{1, 1}}
	rec.g.Add(0, 0, 1)
	rec.g.Add(0, 1, 0.5)
	rec.caps = append(rec.caps, CapTerm{1, 1, 5e-324})
	return rec
}

// TestPlannedSweepMatchesDense checks the planned sweep against the
// dense replay on crafted near-tie, declining and zero-pivot systems,
// and on seeded random MNA-shaped recordings of orders 1 to 14 (and a
// few past 64 unknowns, where the structure rows span several words),
// and asserts that the declined and non-finite branches ran.
func TestPlannedSweepMatchesDense(t *testing.T) {
	var c sweepCounts
	for _, eps := range []float64{1e-12, -1e-12, 1e-3} {
		for _, cap := range []float64{1e-9, 1e-6, 1} {
			checkSweep(t, nearTie(eps, cap), sweepOmegas, &c)
		}
	}
	checkSweep(t, zeroPivot(), []float64{1, 1e-300, 2}, &c)
	if c.singular == 0 {
		t.Error("the zero-pivot system never reached a singular point")
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 3000; trial++ {
		checkSweep(t, randomRecording(rng, 1+rng.Intn(14), true), sweepOmegas, &c)
	}
	var wide sweepCounts
	for _, n := range []int{65, 65, 65, 100, 100, 100, 130, 130, 130} {
		checkSweep(t, randomRecording(rng, n, false), sweepOmegas[:5], &wide)
	}
	t.Logf("orders 1-14: %+v; orders 65-130: %+v", c, wide)
	if wide.points-wide.declined < 10 {
		t.Errorf("orders past 64: %+v, want points solved on the plan", wide)
	}
	if c.declined == 0 || c.nonFinite == 0 {
		t.Errorf("counts %+v: want both declined and non-finite points", c)
	}
	if c.points < 10000 {
		t.Errorf("only %d points compared", c.points)
	}
}

// FuzzPlannedSweepMatchesDense fuzzes the recording: every 4 bytes
// stamp one conductance, single G entry, capacitance, single capacitive
// term or stimulus entry, with capacitive coefficients that include
// ±Inf, NaN, zero, subnormal and huge values.
func FuzzPlannedSweepMatchesDense(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 1, 3, 2, 1, 1, 9, 3, 2, 0, 4, 4, 0, 0, 1})
	f.Add(uint8(5), []byte{0, 0, 0, 1, 0, 1, 2, 2, 2, 3, 4, 0, 3, 2, 2, 2, 1, 4, 1, 7, 4, 2, 0, 5})
	f.Add(uint8(2), []byte{1, 0, 0, 1, 3, 1, 1, 13, 4, 0, 0, 1})
	f.Add(uint8(4), []byte{0, 0, 1, 1, 0, 1, 2, 1, 2, 0, 0, 10, 2, 2, 3, 11, 1, 3, 3, 1, 3, 1, 0, 12})
	values := []float64{
		1, -1, 0.5, 1e-3, -2.5e-4, 3e-12, 1e-15, 7.3e-6, 1 + 1e-12, 1e12,
		math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, 0,
	}
	f.Fuzz(func(t *testing.T, order uint8, data []byte) {
		n := 1 + int(order)%12
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		rec := &recording{g: NewMatrix(n), b: make([]float64, n)}
		for ; len(data) >= 4; data = data[4:] {
			i, j, v := int(data[1])%n, int(data[2])%n, values[int(data[3])%len(values)]
			gv := v
			if math.IsInf(gv, 0) || math.IsNaN(gv) {
				gv = 1 // G holds finite conductances
			}
			switch data[0] % 5 {
			case 0:
				rec.conductance(i, j, gv)
			case 1:
				rec.g.Add(i, j, gv)
			case 2:
				rec.capacitance(i, j, v)
			case 3:
				rec.caps = append(rec.caps, CapTerm{i, j, v})
			case 4:
				rec.b[i] += gv
			}
		}
		checkSweep(t, rec, sweepOmegas, &sweepCounts{})
	})
}
