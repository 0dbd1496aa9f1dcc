// Planned AC elimination. An AC sweep solves A(ω) = G + jω·C at every
// frequency point, and every point has the same structure: G's nonzero
// entries and the positions of the capacitive terms. CPlan eliminates
// over that structure alone. Build takes the structure from the
// recording, never from the values at one frequency (a cancellation at
// one frequency can hide an entry at another), adds the fill that
// elimination under a reference factorisation's pivot order creates,
// and holds the result as index lists. Each Solve then assembles
// A(ω) straight into pivoted LU storage at the plan's positions,
// eliminates and substitutes over the lists only, and runs the same
// stability checks as LU.RefactorInto (magnitudes in the cheap 1-norm).
//
// Exactness. A solve reproduces, bit for bit, the dense elimination
// that replays the reference's pivot order over the whole matrix
// followed by CLU.Solve (NaNs compared as one class), including when it
// declines a point:
//
//   - Assembled entries are never −0: each starts at +0 and only has
//     terms added to it (see the circuit package's ACCtx.Assemble).
//     G holds no −0 either, so the plan assembles an entry as G's value
//     plus j times its capacitive terms summed from +0 in stamp order,
//     which is Assemble's entry bit for bit.
//   - Off the plan, the dense elimination only subtracts l·(+0) with a
//     finite l (every multiplier passes MultLimit before it is used),
//     which leaves +0 at +0 and every other value unchanged. So every
//     entry off the plan stays +0, and skipping those updates changes
//     nothing. The dense multipliers there are ±0: they pass every
//     check and update nothing.
//   - A multiplier at a plan position holding +0 is ±0 too; the plan
//     computes it, and it updates nothing either.
//   - Entries off the plan are +0 and never raise the growth maximum, so
//     the stability checks see the same pivots, multipliers and
//     growth, and decline the same points.
//   - Substitution sums start at +0 or a nonzero value and are never
//     −0, so skipping a product that is ±0 is exact. A skipped product
//     is ±0 while the vector it multiplies is finite, and a non-finite
//     intermediate always leaves a non-finite solution component. So a
//     finite solution is exact, and a solution with a non-finite
//     component is re-solved with CLU.Solve over the same factors.
//
// Rows are eliminated one at a time, each against the finished rows
// above it (row i takes its updates from rows k < i in increasing k).
// Every entry receives the same operations in the same order as in the
// column-at-a-time dense elimination, and the back substitution divides
// with the pivots' hoisted divisors (cDivisor), which carry the same
// bits as Go's complex division.
package num

import (
	"math"
	"math/bits"
)

// CapTerm is one capacitive term of a system G + jω·C: the admittance
// jω·C added to entry (I, J).
type CapTerm struct {
	I, J int
	C    float64
}

// CPlan is the elimination plan of one AC sweep: the pivoted LU storage
// of the sweep's systems under a reference pivot order, the structure
// those systems share plus its fill as index lists, and the values G
// and the capacitive terms assemble from. Build makes it once per
// sweep; Solve solves one frequency point. The zero value is ready for
// Build. Buffers are reused: a CPlan allocates only when the order of
// its systems or the number of capacitive terms grows. Like CLU it must
// not be shared between goroutines.
type CPlan struct {
	f  CLU  // pivoted factors; entries off the plan stay +0
	ok bool // Build found a valid reference

	pos  []int32   // plan positions in f.lu, row by row
	gv   []float64 // G at each plan position (+0 at fill)
	capQ []int32   // plan position index of each capacitive term, in stamp order
	capC []float64 // its coefficient
	im   []float64 // imaginary part at each plan position (Solve scratch)

	// Row r's columns left of the diagonal are lIdx[lPtr[r]:lPtr[r+1]],
	// those right of it uIdx[uPtr[r]:uPtr[r+1]], both increasing.
	lPtr, uPtr []int32
	lIdx, uIdx []int32

	div   []cDivisor   // each row's pivot divisor (Solve scratch)
	b     []complex128 // complex stimulus for a dense re-solve
	rows  []uint64     // structure rows as bitsets (Build scratch)
	rowOf []int        // plan row of each original row (Build scratch)
	at    []int32      // plan position index of each f.lu entry (Build scratch)
}

// resize (re)sizes the plan's buffers for order-n systems, keeping
// existing allocations whenever they are large enough. The lists get
// their worst-case capacity, so Build never grows them.
func (p *CPlan) resize(n int) {
	p.f.resize(n)
	if cap(p.div) < n {
		tri := n * (n - 1) / 2
		p.pos, p.gv = make([]int32, 0, n*n), make([]float64, 0, n*n)
		p.im, p.at = make([]float64, n*n), make([]int32, n*n)
		p.lIdx, p.uIdx = make([]int32, 0, tri), make([]int32, 0, tri)
		p.lPtr, p.uPtr = make([]int32, n+1), make([]int32, n+1)
		p.div, p.b, p.rowOf = make([]cDivisor, n), make([]complex128, n), make([]int, n)
	}
	p.lPtr, p.uPtr = p.lPtr[:n+1], p.uPtr[:n+1]
	p.div, p.b, p.rowOf = p.div[:n], p.b[:n], p.rowOf[:n]
	w := (n + 63) / 64
	if cap(p.rows) < n*w {
		p.rows = make([]uint64, n*w)
	}
	p.rows = p.rows[:n*w]
}

// Build plans the systems G + jω·C, with caps the capacitive terms in
// stamp order, under ref's pivot order: ref is typically the full
// partial-pivot factorisation of the sweep's first point. The structure
// is G's nonzero entries and the capacitive terms' positions (a pivot
// off it stays +0 and fails its check, as in the dense replay). When
// ref holds no valid factorisation of G's order, every Solve declines.
func (p *CPlan) Build(ref *CLU, g *Matrix, caps []CapTerm) {
	n := g.N
	p.ok = false
	if ref == nil || !ref.ok || ref.n != n {
		return
	}
	p.resize(n)
	copy(p.f.piv, ref.piv)
	clear(p.f.lu)
	for r, i := range ref.piv {
		p.rowOf[i] = r
	}
	w := (n + 63) / 64
	rows := p.rows
	clear(rows)
	for r := 0; r < n; r++ {
		row := rows[r*w : r*w+w]
		for j, v := range g.Data[ref.piv[r]*n : ref.piv[r]*n+n] {
			if v != 0 {
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
	for _, t := range caps {
		r := p.rowOf[t.I]
		rows[r*w+t.J/64] |= 1 << (t.J % 64)
	}
	// Symbolic elimination: eliminating column k with row k fills row
	// i > k wherever row k has an entry right of k.
	for k := 0; k < n; k++ {
		rowK := rows[k*w : k*w+w]
		kw, kb := k/64, uint64(1)<<(k%64)
		right := rowK[kw] &^ (kb<<1 - 1)
		for i := k + 1; i < n; i++ {
			rowI := rows[i*w : i*w+w]
			if rowI[kw]&kb == 0 {
				continue
			}
			rowI[kw] |= right
			for q := kw + 1; q < w; q++ {
				rowI[q] |= rowK[q]
			}
		}
	}
	p.pos, p.gv = p.pos[:0], p.gv[:0]
	p.lIdx, p.uIdx = p.lIdx[:0], p.uIdx[:0]
	for r := 0; r < n; r++ {
		p.lPtr[r], p.uPtr[r] = int32(len(p.lIdx)), int32(len(p.uIdx))
		gRow := g.Data[ref.piv[r]*n : ref.piv[r]*n+n]
		for q, word := range rows[r*w : r*w+w] {
			for ; word != 0; word &= word - 1 {
				j := q*64 + bits.TrailingZeros64(word)
				p.at[r*n+j] = int32(len(p.pos))
				p.pos = append(p.pos, int32(r*n+j))
				p.gv = append(p.gv, gRow[j])
				switch {
				case j < r:
					p.lIdx = append(p.lIdx, int32(j))
				case j > r:
					p.uIdx = append(p.uIdx, int32(j))
				}
			}
		}
	}
	p.lPtr[n], p.uPtr[n] = int32(len(p.lIdx)), int32(len(p.uIdx))
	p.capQ, p.capC = p.capQ[:0], p.capC[:0]
	for _, t := range caps {
		p.capQ = append(p.capQ, p.at[p.rowOf[t.I]*n+t.J])
		p.capC = append(p.capC, t.C)
	}
	p.im = p.im[:len(p.pos)]
	p.ok = true
}

// Solve solves the planned system at angular frequency omega, with the
// real stimulus b, into x. It returns false, with x unspecified, when
// the plan has no valid reference or the reused pivot order fails a
// stability check (see LU.RefactorInto); the caller then factors the
// point afresh with FactorInto, exactly as the dense replay would fall
// back.
func (p *CPlan) Solve(omega float64, b []float64, x []complex128) bool {
	if !p.ok {
		return false
	}
	f := &p.f
	n, lu := f.n, f.lu
	if len(b) != n || len(x) != n {
		panic("num: CPlan.Solve dimension mismatch")
	}
	im := p.im
	clear(im)
	for t, q := range p.capQ {
		// float64(...) rounds the product, so it is never fused into
		// the addition.
		im[q] += float64(omega * p.capC[t])
	}
	for q, k := range p.pos {
		lu[k] = complex(p.gv[q], im[q])
	}
	maxU, maxPiv := 0.0, 0.0
	for i := 0; i < n; i++ {
		rowI := lu[i*n : i*n+n]
		for _, k := range p.lIdx[p.lPtr[i]:p.lPtr[i+1]] {
			l := p.div[k].quo(rowI[k])
			if !(cAbs1(l) <= MultLimit) {
				return false // unstable (or NaN) multiplier
			}
			rowI[k] = l
			if l == 0 {
				continue
			}
			rowK := lu[int(k)*n : int(k)*n+n]
			for _, j := range p.uIdx[p.uPtr[k]:p.uPtr[k+1]] {
				rowI[j] -= l * rowK[j]
			}
		}
		// Row i is final: check its pivot and fold its growth.
		pivot := rowI[i]
		pa := cAbs1(pivot)
		if !(pa > 0) {
			return false // zero or NaN pivot
		}
		maxU = max(maxU, pa)
		maxPiv = max(maxPiv, pa)
		for _, j := range p.uIdx[p.uPtr[i]:p.uPtr[i+1]] {
			if av := cAbs1(rowI[j]); av > maxU {
				maxU = av
			}
		}
		p.div[i].set(pivot)
	}
	if !(maxU <= GrowthLimit*maxPiv) {
		return false // runaway element growth
	}
	for i, r := range f.piv {
		x[i] = complex(b[r], 0)
	}
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+n]
		s := x[i]
		for _, j := range p.lIdx[p.lPtr[i]:p.lPtr[i+1]] {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : i*n+n]
		s := x[i]
		for _, j := range p.uIdx[p.uPtr[i]:p.uPtr[i+1]] {
			s -= row[j] * x[j]
		}
		x[i] = p.div[i].quo(s)
	}
	for _, v := range x {
		if !cFinite(v) {
			// A skipped product may have been 0·Inf: solve densely.
			for i, v := range b {
				p.b[i] = complex(v, 0)
			}
			f.Solve(p.b, x)
			break
		}
	}
	return true
}

// cAbs1 is the 1-norm magnitude |re|+|im| — within √2 of cmplx.Abs and
// far cheaper (no hypot), which is all a stability threshold needs.
func cAbs1(v complex128) float64 {
	return math.Abs(real(v)) + math.Abs(imag(v))
}

// cFinite reports whether both parts of v are finite.
func cFinite(v complex128) bool {
	re, im := real(v), imag(v)
	return re-re == 0 && im-im == 0
}
