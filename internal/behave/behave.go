// Package behave implements the behavioural OTA model of the paper's
// §4.4 listing in two forms:
//
//   - Go devices (Amp, OTA) that stamp directly into this repository's
//     MNA simulator, so the behavioural model can replace the 10-transistor
//     OTA inside larger circuits (the §5 filter) at a fraction of the cost;
//   - a Verilog-A code generator that emits the paper's module text and
//     $table_model data files for use with external simulators.
//
// The paper's analogue block is
//
//	V(out) <+ V(inp)·(−gain_in_v) − I(out)·ro
//
// — a finite-gain inverting amplifier with output resistance. Loaded by
// a capacitance this produces the dominant pole; the divergence above
// ~40 MHz in Fig 8 is exactly the absence of the transistor model's
// parasitic poles.
package behave

import (
	"math"

	"analogyield/internal/circuit"
	"analogyield/internal/ota"
)

// Amp is the paper's behavioural amplifier: v(out) = K·(v(inP)−v(inN))
// with Thevenin output resistance Ro. K = −10^(GainDB/20) when Invert is
// set (the paper's convention), +10^(GainDB/20) otherwise.
//
// It stamps as the Norton equivalent (no auxiliary branch):
// a conductance 1/Ro at the output plus controlled current K/Ro·v(in).
type Amp struct {
	Inst          string
	InP, InN, Out int
	GainDB        float64 // DC gain magnitude, dB
	Ro            float64 // output resistance, ohms (> 0)
	Invert        bool    // paper's model inverts
}

// Name returns the instance name.
func (a *Amp) Name() string { return a.Inst }

// Branches returns 0 (Norton form needs no branch current).
func (a *Amp) Branches() int { return 0 }

// Copy returns a deep copy.
func (a *Amp) Copy() circuit.Device { c := *a; return &c }

// K returns the signed linear gain.
func (a *Amp) K() float64 {
	k := math.Pow(10, a.GainDB/20)
	if a.Invert {
		k = -k
	}
	return k
}

func (a *Amp) stamp(addJ func(i, j int, v float64)) {
	g := 1 / a.Ro
	kg := a.K() * g
	// I(out→device) = (v(out) − K·v(in)) / Ro.
	addJ(a.Out, a.Out, g)
	addJ(a.Out, a.InP, -kg)
	addJ(a.Out, a.InN, kg)
}

// StampDC stamps the linear amplifier.
func (a *Amp) StampDC(ctx *circuit.DCCtx, _ int) { a.stamp(ctx.AddJ) }

// StampAC stamps the linear amplifier.
func (a *Amp) StampAC(ctx *circuit.ACCtx, _ int) { a.stamp(ctx.AddG) }

// StampTran stamps the linear amplifier.
func (a *Amp) StampTran(ctx *circuit.TranCtx, _ int) { a.stamp(ctx.AddJ) }

// OTA is the transconductor form of the behavioural model: a current
// Gm·(v(inP)−v(inN)) pushed into the output node against an output
// conductance 1/Ro (and optional output capacitance Co). The two forms
// are equivalent (K = Gm·Ro); the OTA form is the natural element for
// gm-C filters.
type OTA struct {
	Inst          string
	InP, InN, Out int
	Gm            float64 // transconductance, S
	Ro            float64 // output resistance, ohms
	Co            float64 // output capacitance, F (optional)
}

// Name returns the instance name.
func (o *OTA) Name() string { return o.Inst }

// Branches returns 0.
func (o *OTA) Branches() int { return 0 }

// Copy returns a deep copy.
func (o *OTA) Copy() circuit.Device { c := *o; return &c }

func (o *OTA) stamp(addJ func(i, j int, v float64)) {
	// Current Gm·(vp−vn) INTO Out: row Out gets −Gm·vp +Gm·vn on the
	// left-hand side.
	addJ(o.Out, o.InP, -o.Gm)
	addJ(o.Out, o.InN, o.Gm)
	if o.Ro > 0 {
		addJ(o.Out, o.Out, 1/o.Ro)
	}
}

// StampDC stamps the transconductor.
func (o *OTA) StampDC(ctx *circuit.DCCtx, _ int) { o.stamp(ctx.AddJ) }

// StampAC stamps the transconductor plus its output capacitance.
func (o *OTA) StampAC(ctx *circuit.ACCtx, _ int) {
	o.stamp(ctx.AddG)
	if o.Co > 0 {
		ctx.AddC(o.Out, o.Out, o.Co)
	}
}

// StampTran stamps the transconductor (output capacitance by backward
// Euler).
func (o *OTA) StampTran(ctx *circuit.TranCtx, _ int) {
	o.stamp(ctx.AddJ)
	if o.Co > 0 {
		geq := o.Co / ctx.Dt
		ctx.AddJ(o.Out, o.Out, geq)
		ctx.AddB(o.Out, geq*ctx.VPrev(o.Out))
	}
}

// FromPerf derives the behavioural parameters from a measured (or
// table-interpolated) transistor-level performance: the effective
// transconductance from the unity-gain frequency and known load
// (gm = 2π·fu·CL) and the output resistance from the DC gain
// (ro = A/gm).
func FromPerf(perf ota.Perf, cl float64) (gm, ro float64) {
	gm = 2 * math.Pi * perf.UnityHz * cl
	a := math.Pow(10, perf.GainDB/20)
	if gm > 0 {
		ro = a / gm
	}
	return gm, ro
}
