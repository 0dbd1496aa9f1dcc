package circuit

import (
	"math"
)

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	Inst string
	A, B int
	R    float64 // ohms, must be > 0
}

// Name returns the instance name.
func (r *Resistor) Name() string { return r.Inst }

// Branches returns 0: resistors add no auxiliary unknowns.
func (r *Resistor) Branches() int { return 0 }

// Copy returns a deep copy.
func (r *Resistor) Copy() Device { c := *r; return &c }

// StampDC stamps the conductance.
func (r *Resistor) StampDC(ctx *DCCtx, _ int) { ctx.StampConductance(r.A, r.B, 1/r.R) }

// StampAC stamps the conductance.
func (r *Resistor) StampAC(ctx *ACCtx, _ int) { ctx.StampConductance(r.A, r.B, 1/r.R) }

// StampTran stamps the conductance.
func (r *Resistor) StampTran(ctx *TranCtx, _ int) { ctx.StampConductance(r.A, r.B, 1/r.R) }

// Capacitor is a linear two-terminal capacitance.
type Capacitor struct {
	Inst string
	A, B int
	C    float64 // farads
}

// Name returns the instance name.
func (c *Capacitor) Name() string { return c.Inst }

// Branches returns 0.
func (c *Capacitor) Branches() int { return 0 }

// Copy returns a deep copy.
func (c *Capacitor) Copy() Device { d := *c; return &d }

// StampDC contributes nothing: capacitors are open at DC.
func (c *Capacitor) StampDC(_ *DCCtx, _ int) {}

// StampAC stamps the admittance jωC.
func (c *Capacitor) StampAC(ctx *ACCtx, _ int) { ctx.StampCapacitance(c.A, c.B, c.C) }

// StampTran stamps the trapezoidal companion model
//
//	i(t) = geq·v(t) − (geq·v(t−dt) + i(t−dt)),  geq = 2C/dt
//
// with the previous current kept in ctx.State.
func (c *Capacitor) StampTran(ctx *TranCtx, _ int) {
	geq := 2 * c.C / ctx.Dt
	vPrev := ctx.VPrev(c.A) - ctx.VPrev(c.B)
	iPrev := 0.0
	if st, ok := ctx.State[c.Inst]; ok {
		iPrev = st[0]
	}
	ieq := geq*vPrev + iPrev
	ctx.StampConductance(c.A, c.B, geq)
	// ieq flows from B to A (it opposes the companion conductance).
	ctx.StampCurrent(c.B, c.A, ieq)
}

// UpdateTranState records the capacitor current after a converged step.
func (c *Capacitor) UpdateTranState(ctx *TranCtx) {
	geq := 2 * c.C / ctx.Dt
	v := ctx.V(c.A) - ctx.V(c.B)
	vPrev := ctx.VPrev(c.A) - ctx.VPrev(c.B)
	iPrev := 0.0
	if st, ok := ctx.State[c.Inst]; ok {
		iPrev = st[0]
	}
	i := geq*(v-vPrev) - iPrev
	ctx.State[c.Inst] = []float64{i}
}

// Inductor is a linear two-terminal inductance with a branch current
// unknown.
type Inductor struct {
	Inst string
	A, B int
	L    float64 // henries
}

// Name returns the instance name.
func (l *Inductor) Name() string { return l.Inst }

// Branches returns 1: the inductor current.
func (l *Inductor) Branches() int { return 1 }

// Copy returns a deep copy.
func (l *Inductor) Copy() Device { c := *l; return &c }

// StampDC treats the inductor as a short (0 V branch equation).
func (l *Inductor) StampDC(ctx *DCCtx, bb int) {
	ctx.AddJ(l.A, bb, 1)
	ctx.AddJ(l.B, bb, -1)
	ctx.AddJ(bb, l.A, 1)
	ctx.AddJ(bb, l.B, -1)
}

// StampAC stamps v(A)−v(B) = jωL·i.
func (l *Inductor) StampAC(ctx *ACCtx, bb int) {
	ctx.AddG(l.A, bb, 1)
	ctx.AddG(l.B, bb, -1)
	ctx.AddG(bb, l.A, 1)
	ctx.AddG(bb, l.B, -1)
	ctx.AddC(bb, bb, -l.L)
}

// StampTran stamps the backward-Euler companion
// v(t) − (L/dt)·i(t) = −(L/dt)·i(t−dt).
func (l *Inductor) StampTran(ctx *TranCtx, bb int) {
	req := l.L / ctx.Dt
	iPrev := ctx.XPrev[bb]
	ctx.AddJ(l.A, bb, 1)
	ctx.AddJ(l.B, bb, -1)
	ctx.AddJ(bb, l.A, 1)
	ctx.AddJ(bb, l.B, -1)
	ctx.AddJ(bb, bb, -req)
	ctx.AddB(bb, -req*iPrev)
}

// Waveform is a time-dependent source value for transient analysis.
type Waveform interface {
	At(t float64) float64
}

// SineWave is offset + amp·sin(2πf·t + phase).
type SineWave struct {
	Offset, Amp, Freq, Phase float64
}

// At evaluates the waveform.
func (s SineWave) At(t float64) float64 {
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*t+s.Phase)
}

// PulseWave is a trapezoidal pulse train (SPICE PULSE semantics,
// simplified to a single period repeated).
type PulseWave struct {
	V1, V2            float64 // low and high levels
	Delay, Rise, Fall float64
	Width, Period     float64
}

// At evaluates the waveform.
func (p PulseWave) At(t float64) float64 {
	if t < p.Delay {
		return p.V1
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		return p.V1 + (p.V2-p.V1)*tt/p.Rise
	case tt < p.Rise+p.Width:
		return p.V2
	case tt < p.Rise+p.Width+p.Fall:
		return p.V2 - (p.V2-p.V1)*(tt-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}

// VSource is an independent voltage source with one branch unknown. Its
// branch current flows from the positive terminal through the source to
// the negative terminal.
type VSource struct {
	Inst     string
	Pos, Neg int
	DC       float64
	ACMag    float64 // small-signal magnitude (phase 0)
	Wave     Waveform
}

// Name returns the instance name.
func (v *VSource) Name() string { return v.Inst }

// Branches returns 1.
func (v *VSource) Branches() int { return 1 }

// Copy returns a deep copy (the waveform is shared; waveforms are
// immutable values).
func (v *VSource) Copy() Device { c := *v; return &c }

// StampDC stamps the branch equation v(Pos)−v(Neg) = DC·SourceScale.
func (v *VSource) StampDC(ctx *DCCtx, bb int) {
	ctx.AddJ(v.Pos, bb, 1)
	ctx.AddJ(v.Neg, bb, -1)
	ctx.AddJ(bb, v.Pos, 1)
	ctx.AddJ(bb, v.Neg, -1)
	ctx.AddB(bb, v.DC*ctx.SourceScale)
}

// StampAC stamps the small-signal branch equation.
func (v *VSource) StampAC(ctx *ACCtx, bb int) {
	ctx.AddG(v.Pos, bb, 1)
	ctx.AddG(v.Neg, bb, -1)
	ctx.AddG(bb, v.Pos, 1)
	ctx.AddG(bb, v.Neg, -1)
	ctx.AddB(bb, v.ACMag)
}

// StampTran stamps the branch equation at the waveform value (falling
// back to DC when no waveform is set).
func (v *VSource) StampTran(ctx *TranCtx, bb int) {
	val := v.DC
	if v.Wave != nil {
		val = v.Wave.At(ctx.Time)
	}
	ctx.AddJ(v.Pos, bb, 1)
	ctx.AddJ(v.Neg, bb, -1)
	ctx.AddJ(bb, v.Pos, 1)
	ctx.AddJ(bb, v.Neg, -1)
	ctx.AddB(bb, val)
}

// ISource is an independent current source; the current flows from Pos
// through the source to Neg (i.e. it is pushed into the Neg node).
type ISource struct {
	Inst     string
	Pos, Neg int
	DC       float64
	ACMag    float64
	Wave     Waveform
}

// Name returns the instance name.
func (i *ISource) Name() string { return i.Inst }

// Branches returns 0.
func (i *ISource) Branches() int { return 0 }

// Copy returns a deep copy.
func (i *ISource) Copy() Device { c := *i; return &c }

// StampDC injects the scaled DC current.
func (i *ISource) StampDC(ctx *DCCtx, _ int) {
	ctx.StampCurrent(i.Pos, i.Neg, i.DC*ctx.SourceScale)
}

// StampAC injects the small-signal current.
func (i *ISource) StampAC(ctx *ACCtx, _ int) {
	ctx.AddB(i.Pos, -i.ACMag)
	ctx.AddB(i.Neg, i.ACMag)
}

// StampTran injects the waveform current.
func (i *ISource) StampTran(ctx *TranCtx, _ int) {
	val := i.DC
	if i.Wave != nil {
		val = i.Wave.At(ctx.Time)
	}
	ctx.StampCurrent(i.Pos, i.Neg, val)
}

// VCVS is a voltage-controlled voltage source (SPICE "E" element):
// v(OutP)−v(OutN) = Gain·(v(InP)−v(InN)).
type VCVS struct {
	Inst                 string
	OutP, OutN, InP, InN int
	Gain                 float64
}

// Name returns the instance name.
func (e *VCVS) Name() string { return e.Inst }

// Branches returns 1.
func (e *VCVS) Branches() int { return 1 }

// Copy returns a deep copy.
func (e *VCVS) Copy() Device { c := *e; return &c }

func (e *VCVS) stampReal(addJ func(i, j int, v float64), bb int) {
	addJ(e.OutP, bb, 1)
	addJ(e.OutN, bb, -1)
	addJ(bb, e.OutP, 1)
	addJ(bb, e.OutN, -1)
	addJ(bb, e.InP, -e.Gain)
	addJ(bb, e.InN, e.Gain)
}

// StampDC stamps the controlled branch.
func (e *VCVS) StampDC(ctx *DCCtx, bb int) { e.stampReal(ctx.AddJ, bb) }

// StampAC stamps the controlled branch.
func (e *VCVS) StampAC(ctx *ACCtx, bb int) { e.stampReal(ctx.AddG, bb) }

// StampTran stamps the controlled branch.
func (e *VCVS) StampTran(ctx *TranCtx, bb int) { e.stampReal(ctx.AddJ, bb) }

// VCCS is a voltage-controlled current source (SPICE "G" element): a
// current Gm·(v(InP)−v(InN)) flows from OutP through the device to OutN.
type VCCS struct {
	Inst                 string
	OutP, OutN, InP, InN int
	Gm                   float64
}

// Name returns the instance name.
func (g *VCCS) Name() string { return g.Inst }

// Branches returns 0.
func (g *VCCS) Branches() int { return 0 }

// Copy returns a deep copy.
func (g *VCCS) Copy() Device { c := *g; return &c }

func (g *VCCS) stampReal(addJ func(i, j int, v float64)) {
	addJ(g.OutP, g.InP, g.Gm)
	addJ(g.OutP, g.InN, -g.Gm)
	addJ(g.OutN, g.InP, -g.Gm)
	addJ(g.OutN, g.InN, g.Gm)
}

// StampDC stamps the transconductance.
func (g *VCCS) StampDC(ctx *DCCtx, _ int) { g.stampReal(ctx.AddJ) }

// StampAC stamps the transconductance.
func (g *VCCS) StampAC(ctx *ACCtx, _ int) { g.stampReal(ctx.AddG) }

// StampTran stamps the transconductance.
func (g *VCCS) StampTran(ctx *TranCtx, _ int) { g.stampReal(ctx.AddJ) }
