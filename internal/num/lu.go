// Package num provides small dense linear-algebra kernels used by the
// circuit simulator: LU factorisation with partial pivoting over the real
// and complex fields, plus vector and statistics helpers.
//
// The matrices that arise from modified nodal analysis of the circuits in
// this repository are small (tens of unknowns), so for Newton's real
// systems a dense solver with partial pivoting is both simpler and
// faster than a sparse one. For the AC sweep that was measured false:
// its complex systems are about a third nonzero, and every frequency
// point solves one, so CPlan (plan.go) eliminates over the sweep's
// structure instead, bit for bit as the dense elimination would.
package num

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when a factorisation encounters an exactly or
// numerically singular matrix.
var ErrSingular = errors.New("num: singular matrix")

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	N    int       // order (matrices here are square)
	Data []float64 // len N*N, row-major
}

// NewMatrix returns an n-by-n zero matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("num: negative matrix order")
	}
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add adds v to the element at row i, column j. This is the fundamental
// "stamp" operation of modified nodal analysis.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Zero clears every element, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m·x. y must have length m.N.
func (m *Matrix) MulVec(x, y []float64) {
	n := m.N
	if len(x) != n || len(y) != n {
		panic("num: MulVec dimension mismatch")
	}
	for i := 0; i < n; i++ {
		row := m.Data[i*n : i*n+n]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			s += fmt.Sprintf("% 12.5g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// LU holds an in-place LU factorisation with partial pivoting of a real
// matrix: P·A = L·U with unit-diagonal L stored below the diagonal.
//
// An LU owns its buffers and can be refilled with FactorInto, so hot
// loops (Newton iterations, Monte Carlo samples) factor repeatedly
// without allocating. Because Solve reuses an internal scratch vector,
// an LU must not be shared between goroutines solving concurrently.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	y    []float64 // Solve scratch
	sign int
	ok   bool // a successful factorisation is present (pivots valid)
}

// NewLU returns an LU buffer pre-sized for order-n systems, ready for
// FactorInto.
func NewLU(n int) *LU {
	if n < 0 {
		panic("num: negative LU order")
	}
	return &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n),
		y: make([]float64, n), sign: 1}
}

// Factor computes the LU factorisation of a. The contents of a are not
// modified. It returns ErrSingular when a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	f := NewLU(a.N)
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// resize (re)sizes the factorisation buffers for order-n systems,
// keeping existing allocations whenever they are large enough.
func (f *LU) resize(n int) {
	if cap(f.lu) < n*n {
		f.lu = make([]float64, n*n)
		f.piv = make([]int, n)
		f.y = make([]float64, n)
	} else {
		f.lu = f.lu[:n*n]
		f.piv = f.piv[:n]
		f.y = f.y[:n]
	}
	f.n = n
}

// FactorInto refactors a into f's buffers without allocating (buffers
// grow only when the order increases). The contents of a are not
// modified. On ErrSingular the receiver stays usable for further calls.
func (f *LU) FactorInto(a *Matrix) error {
	n := a.N
	f.resize(n)
	f.ok = false
	f.sign = 1
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Partial pivot: largest |a[i][k]| for i >= k.
		p := k
		maxAbs := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rowP := lu[p*n : p*n+n]
			rowK := lu[k*n : k*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			rowK := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	f.ok = true
	return nil
}

// Solve solves A·x = b, writing the solution into x. b and x may alias.
// It reuses the factorisation's scratch vector, so concurrent Solve
// calls on one LU are not safe.
func (f *LU) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("num: Solve dimension mismatch")
	}
	// Apply permutation: y = P·b.
	if len(f.y) < n {
		f.y = make([]float64, n)
	}
	y := f.y[:n]
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+n]
		s := y[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s
	}
	// Back substitution with U.
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

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveSystem is a convenience wrapper: factor a and solve a·x = b.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.Solve(b, x)
	return x, nil
}

// CMatrix is a dense, row-major complex matrix used for AC (small-signal)
// analysis.
type CMatrix struct {
	N    int
	Data []complex128
}

// NewCMatrix returns an n-by-n complex zero matrix.
func NewCMatrix(n int) *CMatrix {
	if n < 0 {
		panic("num: negative matrix order")
	}
	return &CMatrix{N: n, Data: make([]complex128, n*n)}
}

// At returns the element at row i, column j.
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns the element at row i, column j.
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Add adds v to the element at row i, column j.
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.N+j] += v }

// Zero clears every element, keeping the allocation.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CLU holds an LU factorisation with partial pivoting of a complex
// matrix. Like LU it owns reusable buffers (see FactorInto) and must not
// be shared between goroutines solving concurrently.
type CLU struct {
	n   int
	lu  []complex128
	piv []int
	y   []complex128 // Solve scratch
	ok  bool         // a successful factorisation is present (pivots valid)
}

// NewCLU returns a CLU buffer pre-sized for order-n systems, ready for
// FactorInto.
func NewCLU(n int) *CLU {
	if n < 0 {
		panic("num: negative CLU order")
	}
	return &CLU{n: n, lu: make([]complex128, n*n), piv: make([]int, n),
		y: make([]complex128, n)}
}

// cDivisor is the divisor-only half of Go's complex division n/m
// (runtime complex128div, Smith's algorithm): which part of m dominates,
// the ratio of the smaller part to the larger, and the real
// denominator. An elimination divides a whole column by one pivot, so
// the factorisations compute this once per pivot instead of once per
// row. quo repeats the numerator half with the runtime's operations in
// the runtime's order, so d.quo(n) and n/m carry the same bits.
type cDivisor struct {
	m            complex128
	realDom      bool // |real(m)| >= |imag(m)|
	ratio, denom float64
}

// set makes d the divisor m. It is small enough to inline: a call per
// pivot costs more than the division it saves on short columns.
func (d *cDivisor) set(m complex128) {
	big, small := real(m), imag(m)
	d.m, d.realDom = m, math.Abs(big) >= math.Abs(small)
	if !d.realDom {
		big, small = small, big
	}
	d.ratio = small / big
	d.denom = big + d.ratio*small
}

// quo returns n/m.
func (d *cDivisor) quo(n complex128) complex128 {
	var e, f float64
	if d.realDom {
		e = (real(n) + imag(n)*d.ratio) / d.denom
		f = (imag(n) - real(n)*d.ratio) / d.denom
	} else {
		e = (real(n)*d.ratio + imag(n)) / d.denom
		f = (imag(n)*d.ratio - real(n)) / d.denom
	}
	if e != e && f != f {
		// The runtime's C99 recovery of infinities and zeros.
		return n / d.m
	}
	return complex(e, f)
}

// CFactor computes the complex LU factorisation of a without modifying it.
func CFactor(a *CMatrix) (*CLU, error) {
	f := NewCLU(a.N)
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// resize (re)sizes the factorisation buffers for order-n systems,
// keeping existing allocations whenever they are large enough.
func (f *CLU) resize(n int) {
	if cap(f.lu) < n*n {
		f.lu = make([]complex128, n*n)
		f.piv = make([]int, n)
		f.y = make([]complex128, n)
	} else {
		f.lu = f.lu[:n*n]
		f.piv = f.piv[:n]
		f.y = f.y[:n]
	}
	f.n = n
}

// FactorInto refactors a into f's buffers without allocating (buffers
// grow only when the order increases). The contents of a are not
// modified.
func (f *CLU) FactorInto(a *CMatrix) error {
	n := a.N
	f.resize(n)
	f.ok = false
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	var div cDivisor
	for k := 0; k < n; k++ {
		p := k
		maxAbs := cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rowP := lu[p*n : p*n+n]
			rowK := lu[k*n : k*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		div.set(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			l := div.quo(lu[i*n+k])
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			rowK := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	f.ok = true
	return nil
}

// Solve solves A·x = b over the complex field, writing the result into x.
// It reuses the factorisation's scratch vector, so concurrent Solve
// calls on one CLU are not safe.
func (f *CLU) Solve(b, x []complex128) {
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

// CSolveSystem factors a and solves a·x = b in one call.
func CSolveSystem(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := CFactor(a)
	if err != nil {
		return nil, err
	}
	x := make([]complex128, len(b))
	f.Solve(b, x)
	return x, nil
}
