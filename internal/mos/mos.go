// Package mos implements a smooth compact MOSFET model for the circuit
// simulator: strong-inversion square law with channel-length modulation
// and body effect, a softplus subthreshold blend for Newton robustness,
// a BSIM-style smooth triode/saturation transition, and Meyer gate
// capacitances.
//
// This stands in for the BSim3v3 foundry models the paper uses: the
// OTA's gain/phase-margin behaviour is first-order in gm, gds(λ(L)),
// mirror ratios and node capacitances, all of which this model captures.
package mos

import (
	"fmt"
	"math"

	"analogyield/internal/process"
)

// Thermal voltage kT/q at 300 K.
const vTherm = 0.02585

// Params holds the electrical parameters of one device type. Voltages
// follow the usual SPICE sign convention: VTO is positive for NMOS and
// negative for PMOS.
type Params struct {
	Class   process.DeviceClass
	VTO     float64 // zero-bias threshold voltage, V (signed)
	KP      float64 // transconductance factor µ0·Cox, A/V²
	LambdaK float64 // channel-length modulation: λ = LambdaK / Leff, m/V
	Gamma   float64 // body-effect coefficient, √V
	Phi     float64 // surface potential 2φF, V
	NSub    float64 // subthreshold slope factor (dimensionless, ~1.3)
	Cox     float64 // gate capacitance per area, F/m²
	CGSO    float64 // gate-source overlap capacitance per width, F/m
	CGDO    float64 // gate-drain overlap capacitance per width, F/m
	CJ      float64 // junction capacitance per area, F/m²
	LD      float64 // lateral diffusion, m (Leff = L − 2·LD)
	JuncExt float64 // source/drain junction extent, m (area = W·JuncExt)
}

// NominalNMOS returns 0.35 µm-class NMOS parameters.
func NominalNMOS() Params {
	return Params{
		Class:   process.NMOS,
		VTO:     0.50,
		KP:      170e-6,
		LambdaK: 0.08e-6,
		Gamma:   0.58,
		Phi:     0.84,
		NSub:    1.3,
		Cox:     4.54e-3,
		CGSO:    1.2e-10,
		CGDO:    1.2e-10,
		CJ:      0.94e-3,
		LD:      0.03e-6,
		JuncExt: 0.85e-6,
	}
}

// NominalPMOS returns 0.35 µm-class PMOS parameters.
func NominalPMOS() Params {
	return Params{
		Class:   process.PMOS,
		VTO:     -0.65,
		KP:      58e-6,
		LambdaK: 0.11e-6,
		Gamma:   0.40,
		Phi:     0.80,
		NSub:    1.35,
		Cox:     4.54e-3,
		CGSO:    0.9e-10,
		CGDO:    0.9e-10,
		CJ:      1.36e-3,
		LD:      0.03e-6,
		JuncExt: 0.85e-6,
	}
}

// Nominal returns the nominal parameters for the given class.
func Nominal(c process.DeviceClass) Params {
	if c == process.PMOS {
		return NominalPMOS()
	}
	return NominalNMOS()
}

// Applied returns a copy of p with a statistical process shift applied.
// Shift.DVth increases the threshold magnitude ("slower"), so it adds to
// an NMOS VTO and subtracts from a (negative) PMOS VTO; DBeta scales KP.
func (p Params) Applied(s process.Shift) Params {
	out := p
	if p.Class == process.PMOS {
		out.VTO -= s.DVth
	} else {
		out.VTO += s.DVth
	}
	out.KP *= 1 + s.DBeta
	if out.KP <= 0 {
		out.KP = 1e-12 // degenerate sample; keep the model evaluable
	}
	return out
}

// OP is the operating-point of one device: drain current, small-signal
// conductances and capacitances. The conductances are derivatives of the
// drain-terminal current with respect to the *absolute terminal
// voltages* (gate, drain, bulk; source held fixed), which is exactly the
// form the MNA stamps consume:
//
//	dId/dVs = −(Gm + Gds + Gmb) by KCL.
type OP struct {
	Id            float64 // current into the drain terminal, A
	Gm, Gds, Gmb  float64 // ∂Id/∂Vg, ∂Id/∂Vd, ∂Id/∂Vb (Vs fixed), S
	Cgs, Cgd, Cgb float64 // gate capacitances, F (terminal-referenced)
	Csb, Cdb      float64 // junction capacitances, F
	Vgs, Vds, Vbs float64 // applied terminal differences (signed)
	Vth           float64 // effective threshold incl. body effect (signed)
	Vov           float64 // smooth overdrive used by the model, V (>0)
	Saturated     bool    // vds beyond vdsat (in the conducting frame)
	Swapped       bool    // drain/source roles exchanged internally
}

// geometry-checked effective length.
func (p Params) leff(l float64) float64 {
	le := l - 2*p.LD
	if le <= 1e-9 {
		le = 1e-9
	}
	return le
}

// threshold returns the NMOS-frame threshold voltage at body bias vbs,
// with the body-effect sqrt argument clamped positive.
func (p *Params) threshold(vbs float64) float64 {
	vto := math.Abs(p.VTO)
	arg := p.Phi - vbs
	const argMin = 0.05
	if arg < argMin {
		arg = argMin
	}
	return vto + p.Gamma*(math.Sqrt(arg)-math.Sqrt(p.Phi))
}

// overdrive returns the smooth (softplus) overdrive at vgs above the
// threshold vth: vgs−vth in strong inversion, exponentially small but
// non-zero in subthreshold.
func (p *Params) overdrive(vgs, vth float64) float64 {
	nvt := 2 * p.NSub * vTherm
	x := (vgs - vth) / nvt
	switch {
	case x > 40:
		return vgs - vth
	case x < -40:
		return nvt * math.Exp(x)
	default:
		return nvt * math.Log1p(math.Exp(x))
	}
}

// current returns the NMOS-frame drain current for vds >= 0 at
// overdrive vov, and the saturation voltage it used. beta = KP·W/Leff
// and lambda = LambdaK/Leff are the geometry's constants.
func current(beta, lambda, vov, vds float64) (id, vdsat float64) {
	vdsat = vov
	if vdsat < 1e-9 {
		vdsat = 1e-9
	}
	// Smooth effective vds (order-4 blend between triode and saturation):
	// vds/(1+r⁴)^¼, spelled as the operations math.Pow performs for these
	// arguments. The float64 conversion keeps r⁴ rounded before the add,
	// as the Pow call did, so no fused multiply-add can change the bits.
	r := vds / vdsat
	r2 := r * r
	vdse := vds / math.Exp(0.25*math.Log(1+float64(r2*r2)))
	id = beta * (vov*vdse - 0.5*vdse*vdse) * (1 + lambda*vds)
	return id, vdsat
}

// bias is a terminal bias in the conducting frame: PMOS voltages
// mirrored into the NMOS frame, and drain and source exchanged when
// needed so that vds >= 0. sign maps the frame current back to the
// current into the drain terminal.
type bias struct {
	vgs, vds, vbs float64
	sign          float64
	swapped       bool
}

func (p *Params) frame(vg, vd, vs, vb float64) bias {
	if p.Class == process.PMOS {
		vg, vd, vs, vb = -vg, -vd, -vs, -vb
	}
	b := bias{sign: 1}
	if vd < vs {
		vd, vs = vs, vd
		b.sign, b.swapped = -1, true
	}
	if p.Class == process.PMOS {
		b.sign = -b.sign
	}
	b.vgs, b.vds, b.vbs = vg-vs, vd-vs, vb-vs
	return b
}

// evaluator holds one Eval's geometry constants and its nominal
// threshold and overdrive for the finite-difference probes to share.
type evaluator struct {
	p            *Params
	beta, lambda float64
	vgs, vbs     float64 // nominal frame inputs
	vth, vov     float64 // nominal threshold and overdrive
}

// probe returns the current into the drain terminal at a
// finite-difference probe of the nominal bias. The threshold depends
// only on vbs and the overdrive only on (vgs, vth), so a probe whose
// frame inputs carry the nominal's exact bits reuses them and gets
// exactly what evaluating afresh would give. That holds for the
// threshold at the gate probes, and for both at the drain probes
// while the source stays the frame source (neither the nominal bias
// nor the probe has drain and source exchanged).
func (e *evaluator) probe(vg, vd, vs, vb float64) float64 {
	b := e.p.frame(vg, vd, vs, vb)
	vth, vov := e.vth, e.vov
	if !sameBits(b.vbs, e.vbs) {
		vth = e.p.threshold(b.vbs)
		vov = e.p.overdrive(b.vgs, vth)
	} else if !sameBits(b.vgs, e.vgs) {
		vov = e.p.overdrive(b.vgs, vth)
	}
	id, _ := current(e.beta, e.lambda, vov, b.vds)
	return b.sign * id
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Eval computes the full operating point of a device with the given
// geometry at absolute terminal voltages (gate, drain, source, bulk).
func (p Params) Eval(w, l, vg, vd, vs, vb float64) OP {
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("mos: non-positive geometry W=%g L=%g", w, l))
	}
	le := p.leff(l)
	nom := p.frame(vg, vd, vs, vb)
	e := evaluator{p: &p, beta: p.KP * (w / le), lambda: p.LambdaK / le,
		vgs: nom.vgs, vbs: nom.vbs}
	e.vth = p.threshold(nom.vbs)
	e.vov = p.overdrive(nom.vgs, e.vth)
	id, vdsat := current(e.beta, e.lambda, e.vov, nom.vds)
	op := OP{
		Vgs: vg - vs, Vds: vd - vs, Vbs: vb - vs,
		Id:  nom.sign * id,
		Vov: e.vov, Saturated: nom.vds > vdsat, Swapped: nom.swapped,
	}

	// Small-signal conductances by central finite differences on the
	// smooth current function. The step is far above double-precision
	// noise and far below any feature size of the model.
	const h = 1e-6
	op.Gm = (e.probe(vg+h, vd, vs, vb) - e.probe(vg-h, vd, vs, vb)) / (2 * h)
	op.Gds = (e.probe(vg, vd+h, vs, vb) - e.probe(vg, vd-h, vs, vb)) / (2 * h)
	op.Gmb = (e.probe(vg, vd, vs, vb+h) - e.probe(vg, vd, vs, vb-h)) / (2 * h)

	if p.Class == process.PMOS {
		op.Vth = -e.vth
	} else {
		op.Vth = e.vth
	}

	// Meyer capacitances, blended between triode (½/½) and saturation
	// (⅔/0) by the saturation ratio.
	cch := w * le * p.Cox
	ratio := nom.vds / vdsat
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	cgsInt := cch * (0.5 + ratio/6.0)
	cgdInt := cch * 0.5 * (1 - ratio)
	if nom.swapped {
		cgsInt, cgdInt = cgdInt, cgsInt
	}
	op.Cgs = cgsInt + p.CGSO*w
	op.Cgd = cgdInt + p.CGDO*w
	op.Cgb = 0.1 * cch
	cj := p.CJ * w * p.JuncExt
	op.Csb = cj
	op.Cdb = cj
	return op
}
