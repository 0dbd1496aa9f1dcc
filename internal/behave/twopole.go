package behave

import (
	"math"

	"analogyield/internal/circuit"
	"analogyield/internal/ota"
)

// TwoPoleAmp is the extended behavioural model the paper's §4.4 alludes
// to ("although these higher order effects are not modelled in this
// example, they could easily be incorporated"): the finite-gain
// amplifier with an explicit second pole representing the lumped effect
// of the OTA's internal (mirror) poles.
//
//	H(jω) = K / ((1 + jω/ω1)(1 + jω/ω2)),   K = ±10^(GainDB/20)
//
// The first pole is realised physically by Ro against the external load
// (exactly as in the paper's model). The second pole filters the input
// through one internal branch unknown x that drives the controlled
// source:
//
//	x·(1 + jω/ω2) = v(inP) − v(inN)
//
// At DC and in transient x = v(inP) − v(inN), so the second pole is
// transparent there (it only shapes the small-signal response).
type TwoPoleAmp struct {
	Inst          string
	InP, InN, Out int
	GainDB        float64 // DC gain magnitude, dB
	Ro            float64 // output resistance, ohms
	F2            float64 // second pole, Hz (<= 0 disables it)
	Invert        bool
}

// Name returns the instance name.
func (a *TwoPoleAmp) Name() string { return a.Inst }

// Branches returns 1: the pole-filtered input x.
func (a *TwoPoleAmp) Branches() int { return 1 }

// Copy returns a deep copy.
func (a *TwoPoleAmp) Copy() circuit.Device { c := *a; return &c }

// K returns the signed linear DC gain.
func (a *TwoPoleAmp) K() float64 {
	k := math.Pow(10, a.GainDB/20)
	if a.Invert {
		k = -k
	}
	return k
}

// stampReal stamps the output I(out→device) = (v(out) − K·x)/Ro and
// the frequency-independent part of the branch row x − v(inP) + v(inN).
func (a *TwoPoleAmp) stampReal(addJ func(i, j int, v float64), bb int) {
	g := 1 / a.Ro
	addJ(a.Out, a.Out, g)
	addJ(a.Out, bb, -a.K()*g)
	addJ(bb, bb, 1)
	addJ(bb, a.InP, -1)
	addJ(bb, a.InN, 1)
}

// StampDC stamps the DC-gain amplifier (the second pole is invisible).
func (a *TwoPoleAmp) StampDC(ctx *circuit.DCCtx, bb int) { a.stampReal(ctx.AddJ, bb) }

// StampTran stamps the DC-gain amplifier.
func (a *TwoPoleAmp) StampTran(ctx *circuit.TranCtx, bb int) { a.stampReal(ctx.AddJ, bb) }

// StampAC stamps the amplifier with the second pole's jω/ω2·x term in
// the branch row.
func (a *TwoPoleAmp) StampAC(ctx *circuit.ACCtx, bb int) {
	a.stampReal(ctx.AddG, bb)
	if a.F2 > 0 {
		ctx.AddC(bb, bb, 1/(2*math.Pi*a.F2))
	}
}

// FitTwoPole derives the extended behavioural parameters from a
// measured transistor-level performance: gm and ro as in FromPerf, plus
// a second pole placed so the model reproduces the measured phase
// margin at the unity-gain frequency:
//
//	PM = 180° + φ(fu) ≈ 90° − atan(fu/f2)  ⇒  f2 = fu / tan(90° − PM)
//
// A phase margin at (or numerically above) 90° means no visible second
// pole; f2 is reported as 0 (disabled) in that case.
func FitTwoPole(perf ota.Perf, cl float64) (gm, ro, f2 float64) {
	gm, ro = FromPerf(perf, cl)
	excess := 90 - perf.PMDeg // degrees contributed by the second pole at fu
	if excess <= 0.1 {
		return gm, ro, 0
	}
	f2 = perf.UnityHz / math.Tan(excess*math.Pi/180)
	return gm, ro, f2
}
