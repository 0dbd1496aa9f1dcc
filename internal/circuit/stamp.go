package circuit

import (
	"analogyield/internal/num"
)

// Device is the common interface of all circuit elements. Stamp methods
// receive their branch base (the index of the device's first auxiliary
// current unknown) even when Branches() is zero.
//
// Sign conventions: the MNA node equation at node k reads
// Σ(currents leaving k through devices) = 0, assembled as J·x = b with
// constant/companion current terms moved to b.
type Device interface {
	// Name returns the unique instance name (e.g. "M3", "C1").
	Name() string
	// Branches returns the number of auxiliary current unknowns.
	Branches() int
	// Copy returns a deep copy (for netlist cloning).
	Copy() Device
	// StampDC adds the device's linearised large-signal contribution at
	// the iterate ctx.X.
	StampDC(ctx *DCCtx, branchBase int)
	// StampAC records the device's small-signal model, linearised about
	// the DC solution ctx.DC, once per sweep: real conductances,
	// capacitive coefficients c of the admittance jωc, and real AC
	// stimulus (see ACCtx).
	StampAC(ctx *ACCtx, branchBase int)
	// StampTran adds the device's companion-model contribution for the
	// timestep ending at ctx.Time.
	StampTran(ctx *TranCtx, branchBase int)
}

// DCCtx carries the Newton iteration state during DC solves.
type DCCtx struct {
	J *num.Matrix // Jacobian, NumUnknowns square
	B []float64   // right-hand side
	X []float64   // current iterate (node voltages + branch currents)
	// SourceScale multiplies all independent sources; the DC solver
	// ramps it from 0 to 1 during source stepping. 1 for a plain solve.
	SourceScale float64
}

// V returns the iterate voltage of a node (0 for Ground).
func (c *DCCtx) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.X[node]
}

// AddJ stamps a Jacobian entry, dropping Ground rows/columns.
func (c *DCCtx) AddJ(i, j int, v float64) {
	if i == Ground || j == Ground {
		return
	}
	c.J.Add(i, j, v)
}

// AddB stamps a right-hand-side entry, dropping Ground rows.
func (c *DCCtx) AddB(i int, v float64) {
	if i == Ground {
		return
	}
	c.B[i] += v
}

// StampConductance stamps a two-terminal conductance between nodes a, b.
func (c *DCCtx) StampConductance(a, b int, g float64) {
	c.AddJ(a, a, g)
	c.AddJ(b, b, g)
	c.AddJ(a, b, -g)
	c.AddJ(b, a, -g)
}

// StampCurrent stamps a constant current i flowing from node a to node b
// (leaving a, entering b).
func (c *DCCtx) StampCurrent(a, b int, i float64) {
	c.AddB(a, -i)
	c.AddB(b, i)
}

// ACCtx records the small-signal linearisation of a netlist about its
// DC solution once per sweep. Every stamp is independent of frequency:
// the admittance matrix at angular frequency ω is Y(ω) = G + jω·C, so a
// device stamps its real conductances into G, the coefficients c of its
// capacitive admittances jωc as an ordered list of terms, and its real
// AC stimulus into B. Assemble then builds any frequency point from the
// one recording, and num.CPlan plans the sweep's elimination from G and
// the terms (see analysis.ACPrefix).
type ACCtx struct {
	G  *num.Matrix   // real part of the admittance matrix
	B  []float64     // AC stimulus
	C  []num.CapTerm // capacitive terms, in stamp order
	DC []float64     // solved DC operating point (node voltages + branches)
}

// Reset empties the recording for an order-n system linearised about
// dc, keeping its buffers.
func (c *ACCtx) Reset(n int, dc []float64) {
	if c.G == nil || cap(c.G.Data) < n*n {
		c.G = num.NewMatrix(n)
	} else {
		c.G.N = n
		c.G.Data = c.G.Data[:n*n]
		c.G.Zero()
	}
	if cap(c.B) < n {
		c.B = make([]float64, n)
	} else {
		c.B = c.B[:n]
		clear(c.B)
	}
	c.C = c.C[:0]
	c.DC = dc
}

// VDC returns the DC bias voltage of a node (0 for Ground).
func (c *ACCtx) VDC(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.DC[node]
}

// AddG stamps a real conductance entry, dropping Ground rows/columns.
func (c *ACCtx) AddG(i, j int, v float64) {
	if i == Ground || j == Ground {
		return
	}
	c.G.Add(i, j, v)
}

// AddC stamps the capacitive admittance jω·v at entry (i, j), dropping
// Ground rows/columns.
func (c *ACCtx) AddC(i, j int, v float64) {
	if i == Ground || j == Ground {
		return
	}
	c.C = append(c.C, num.CapTerm{I: i, J: j, C: v})
}

// AddB stamps a real AC stimulus entry, dropping Ground rows.
func (c *ACCtx) AddB(i int, v float64) {
	if i == Ground {
		return
	}
	c.B[i] += v
}

// StampConductance stamps a two-terminal conductance between nodes a, b.
func (c *ACCtx) StampConductance(a, b int, g float64) {
	c.AddG(a, a, g)
	c.AddG(b, b, g)
	c.AddG(a, b, -g)
	c.AddG(b, a, -g)
}

// StampCapacitance stamps a two-terminal capacitance between nodes a, b.
func (c *ACCtx) StampCapacitance(a, b int, v float64) {
	c.AddC(a, a, v)
	c.AddC(b, b, v)
	c.AddC(a, b, -v)
	c.AddC(b, a, -v)
}

// Assemble writes the recorded system at angular frequency omega into a
// and b: a = G + jω·C with the capacitive terms added in stamp order,
// b = B. It only reads the recording, so concurrent calls into distinct
// buffers are safe.
//
// Every entry equals, bit for bit, the sum of the devices' complex
// admittances G + jω·c accumulated at omega in stamp order into a
// zeroed matrix: complex addition is componentwise, every entry starts
// at +0 (so a sum is never −0 and the ±0 halves of a purely real or
// purely imaginary admittance change nothing), and ω·(−c) equals
// −(ω·c) exactly.
func (c *ACCtx) Assemble(omega float64, a *num.CMatrix, b []complex128) {
	for k, g := range c.G.Data {
		a.Data[k] = complex(g, 0)
	}
	for i, v := range c.B {
		b[i] = complex(v, 0)
	}
	for _, t := range c.C {
		// float64(...) rounds the product, so it is never fused into
		// the addition.
		a.Add(t.I, t.J, complex(0, float64(omega*t.C)))
	}
}

// TranCtx carries the Newton state of one transient timestep. The
// trapezoidal companion models need the previous solution and the
// previous device currents; the latter are kept in State, keyed by
// device name.
type TranCtx struct {
	J     *num.Matrix
	B     []float64
	X     []float64 // iterate at t = Time
	XPrev []float64 // converged solution at the previous timestep
	Time  float64
	Dt    float64
	// State holds per-device companion history (e.g. capacitor current
	// at the previous accepted timestep).
	State map[string][]float64
}

// V returns the iterate voltage of a node (0 for Ground).
func (c *TranCtx) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.X[node]
}

// VPrev returns the previous-timestep voltage of a node.
func (c *TranCtx) VPrev(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.XPrev[node]
}

// AddJ stamps a Jacobian entry, dropping Ground rows/columns.
func (c *TranCtx) AddJ(i, j int, v float64) {
	if i == Ground || j == Ground {
		return
	}
	c.J.Add(i, j, v)
}

// AddB stamps a right-hand-side entry, dropping Ground rows.
func (c *TranCtx) AddB(i int, v float64) {
	if i == Ground {
		return
	}
	c.B[i] += v
}

// StampConductance stamps a two-terminal conductance between nodes a, b.
func (c *TranCtx) StampConductance(a, b int, g float64) {
	c.AddJ(a, a, g)
	c.AddJ(b, b, g)
	c.AddJ(a, b, -g)
	c.AddJ(b, a, -g)
}

// StampCurrent stamps a constant current i flowing from node a to b.
func (c *TranCtx) StampCurrent(a, b int, i float64) {
	c.AddB(a, -i)
	c.AddB(b, i)
}
