package circuit

import (
	"analogyield/internal/mos"
)

// MOSFET is a four-terminal MOS transistor instance evaluated with the
// compact model in internal/mos.
type MOSFET struct {
	Inst       string
	D, G, S, B int
	W, L       float64 // metres
	Model      mos.Params
}

// Name returns the instance name.
func (m *MOSFET) Name() string { return m.Inst }

// Branches returns 0: the MOS stamps are pure conductances/currents.
func (m *MOSFET) Branches() int { return 0 }

// Copy returns a deep copy; Monte Carlo perturbs Model on the copy.
func (m *MOSFET) Copy() Device { c := *m; return &c }

// StampDC stamps the Newton companion of the drain current:
//
//	Id ≈ Id0 + Gm·Δvg + Gds·Δvd + Gmb·Δvb + Gs·Δvs,  Gs = −(Gm+Gds+Gmb)
//
// where the conductances are with respect to absolute terminal voltages
// (see mos.OP). The constant part Ieq = Id0 − Gm·vg − Gds·vd − Gmb·vb −
// Gs·vs goes to the right-hand side.
func (m *MOSFET) StampDC(ctx *DCCtx, _ int) {
	vg, vd, vs, vb := ctx.V(m.G), ctx.V(m.D), ctx.V(m.S), ctx.V(m.B)
	op := m.Model.Eval(m.W, m.L, vg, vd, vs, vb)
	gs := -(op.Gm + op.Gds + op.Gmb)
	ieq := op.Id - op.Gm*vg - op.Gds*vd - op.Gmb*vb - gs*vs

	// Row D: +Id leaves the drain node.
	ctx.AddJ(m.D, m.G, op.Gm)
	ctx.AddJ(m.D, m.D, op.Gds)
	ctx.AddJ(m.D, m.B, op.Gmb)
	ctx.AddJ(m.D, m.S, gs)
	ctx.AddB(m.D, -ieq)
	// Row S: −Id leaves the source node.
	ctx.AddJ(m.S, m.G, -op.Gm)
	ctx.AddJ(m.S, m.D, -op.Gds)
	ctx.AddJ(m.S, m.B, -op.Gmb)
	ctx.AddJ(m.S, m.S, -gs)
	ctx.AddB(m.S, ieq)
}

// StampAC stamps the small-signal model at the DC bias, from one
// compact-model evaluation per sweep: gm/gds/gmb as real conductances
// plus the Meyer/junction capacitances.
func (m *MOSFET) StampAC(ctx *ACCtx, _ int) {
	vg, vd, vs, vb := ctx.VDC(m.G), ctx.VDC(m.D), ctx.VDC(m.S), ctx.VDC(m.B)
	op := m.Model.Eval(m.W, m.L, vg, vd, vs, vb)
	gs := -(op.Gm + op.Gds + op.Gmb)
	ctx.AddG(m.D, m.G, op.Gm)
	ctx.AddG(m.D, m.D, op.Gds)
	ctx.AddG(m.D, m.B, op.Gmb)
	ctx.AddG(m.D, m.S, gs)
	ctx.AddG(m.S, m.G, -op.Gm)
	ctx.AddG(m.S, m.D, -op.Gds)
	ctx.AddG(m.S, m.B, -op.Gmb)
	ctx.AddG(m.S, m.S, -gs)

	ctx.StampCapacitance(m.G, m.S, op.Cgs)
	ctx.StampCapacitance(m.G, m.D, op.Cgd)
	ctx.StampCapacitance(m.G, m.B, op.Cgb)
	ctx.StampCapacitance(m.S, m.B, op.Csb)
	ctx.StampCapacitance(m.D, m.B, op.Cdb)
}

// StampTran stamps the nonlinear current companion (as in DC) plus
// backward-Euler companions for the bias-point capacitances. Using the
// OP capacitances at each iterate keeps charge conservation approximate
// but is adequate for the functional-verification transients this
// repository runs.
func (m *MOSFET) StampTran(ctx *TranCtx, _ int) {
	vg, vd, vs, vb := ctx.V(m.G), ctx.V(m.D), ctx.V(m.S), ctx.V(m.B)
	op := m.Model.Eval(m.W, m.L, vg, vd, vs, vb)
	gs := -(op.Gm + op.Gds + op.Gmb)
	ieq := op.Id - op.Gm*vg - op.Gds*vd - op.Gmb*vb - gs*vs
	ctx.AddJ(m.D, m.G, op.Gm)
	ctx.AddJ(m.D, m.D, op.Gds)
	ctx.AddJ(m.D, m.B, op.Gmb)
	ctx.AddJ(m.D, m.S, gs)
	ctx.AddB(m.D, -ieq)
	ctx.AddJ(m.S, m.G, -op.Gm)
	ctx.AddJ(m.S, m.D, -op.Gds)
	ctx.AddJ(m.S, m.B, -op.Gmb)
	ctx.AddJ(m.S, m.S, -gs)
	ctx.AddB(m.S, ieq)

	stampCapBE := func(a, b int, c float64) {
		if c <= 0 {
			return
		}
		geq := c / ctx.Dt
		vPrev := ctx.VPrev(a) - ctx.VPrev(b)
		ctx.StampConductance(a, b, geq)
		ctx.StampCurrent(b, a, geq*vPrev)
	}
	stampCapBE(m.G, m.S, op.Cgs)
	stampCapBE(m.G, m.D, op.Cgd)
	stampCapBE(m.G, m.B, op.Cgb)
	stampCapBE(m.S, m.B, op.Csb)
	stampCapBE(m.D, m.B, op.Cdb)
}
