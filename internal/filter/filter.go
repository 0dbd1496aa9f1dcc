// Package filter implements the paper's §5 application: a 2nd-order
// low-pass gm-C biquad (Fig 9) built from two OTAs, designed to an
// anti-aliasing specification (Fig 10). The filter can be assembled
// either from the behavioural OTA model (fast — the point of the paper)
// or from the full transistor-level OTA (for verification, Fig 11); the
// three capacitors are optimised by a small MOO (30 individuals × 40
// generations, as in the paper) and the final design is verified by
// Monte Carlo yield analysis (500 samples → 100% in the paper).
//
// Topology (two-integrator loop):
//
//	OTA1: i = gm·(V(in) − V(out)) into node n1;  C1 from n1 to ground
//	OTA2: i = gm·(V(n1) − V(out)) into out;      C2 from out to ground
//	C3 bridges n1 and out (a tuning element the MOO may use or zero out)
//
// giving H(s) = gm1·gm2 / (C1C2·s² + gm1·C2·s·(…)) — with equal OTAs,
// ω0 = gm/√(C1C2) and Q = √(C1/C2) at C3 = 0.
package filter

import (
	"fmt"
	"math"

	"analogyield/internal/analysis"
	"analogyield/internal/behave"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/num"
	"analogyield/internal/ota"
	"analogyield/internal/process"
)

// Caps are the three designable capacitors of Fig 9.
type Caps struct {
	C1, C2, C3 float64 // farads
}

// Vector returns (C1, C2, C3).
func (c Caps) Vector() []float64 { return []float64{c.C1, c.C2, c.C3} }

// CapSpace is the box-constrained capacitor design space.
type CapSpace struct {
	Lo, Hi [3]float64
}

// DefaultCapSpace spans 1-100 pF for C1/C2 and 0-20 pF for the bridge
// capacitor C3.
func DefaultCapSpace() CapSpace {
	return CapSpace{
		Lo: [3]float64{1e-12, 1e-12, 0},
		Hi: [3]float64{100e-12, 100e-12, 20e-12},
	}
}

// Denormalize maps three genes in [0,1] to capacitor values.
func (s CapSpace) Denormalize(genes []float64) (Caps, error) {
	if len(genes) != 3 {
		return Caps{}, fmt.Errorf("filter: %d genes, want 3", len(genes))
	}
	v := make([]float64, 3)
	for i, g := range genes {
		v[i] = s.Lo[i] + num.Clamp(g, 0, 1)*(s.Hi[i]-s.Lo[i])
	}
	return Caps{v[0], v[1], v[2]}, nil
}

// Spec is the Fig 10 anti-aliasing template.
type Spec struct {
	PassbandEdge    float64 // Hz: flat response required up to here
	RippleDB        float64 // max passband deviation from the DC gain, dB
	StopbandEdge    float64 // Hz: attenuation measured here
	StopbandAttenDB float64 // min attenuation below DC gain, dB
	MinDCGainDB     float64 // minimum DC gain, dB (unity-gain filter: ~0)
}

// DefaultSpec returns the anti-aliasing template used throughout the
// repository: flat (±1 dB) to 500 kHz, ≥ 30 dB down at 10 MHz, DC gain
// at least −1 dB.
func DefaultSpec() Spec {
	return Spec{
		PassbandEdge:    500e3,
		RippleDB:        1.0,
		StopbandEdge:    10e6,
		StopbandAttenDB: 30,
		MinDCGainDB:     -1,
	}
}

// Response is a measured filter transfer function with the scalar
// figures the spec tests.
type Response struct {
	Freqs           []float64
	TF              []complex128
	DCGainDB        float64
	F3dB            float64
	PassbandDevDB   float64 // max |gain − DC gain| up to PassbandEdge
	StopbandAttenDB float64 // DC gain − gain at StopbandEdge
}

// Satisfies reports whether the response meets the spec.
func (s Spec) Satisfies(r Response) bool {
	return r.DCGainDB >= s.MinDCGainDB &&
		r.PassbandDevDB <= s.RippleDB &&
		r.StopbandAttenDB >= s.StopbandAttenDB
}

// BuildBehavioural assembles the biquad from two behavioural OTAs (the
// gm/ro pair typically derived with behave.FromPerf from the combined
// model's selected design).
func BuildBehavioural(caps Caps, gm, ro float64) *circuit.Netlist {
	n := circuit.New("gm-C biquad (behavioural OTAs)")
	in := n.Node("in")
	n1 := n.Node("n1")
	out := n.Node("out")
	gnd := circuit.Ground
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: gnd, DC: 0, ACMag: 1})
	n.MustAdd(&behave.OTA{Inst: "X1", InP: in, InN: out, Out: n1, Gm: gm, Ro: ro})
	n.MustAdd(&behave.OTA{Inst: "X2", InP: n1, InN: out, Out: out, Gm: gm, Ro: ro})
	addCaps(n, caps, n1, out)
	return n
}

// BuildTransistor assembles the biquad from two transistor-level OTA
// instances (Fig 11's verification netlist). Each OTA has its own
// internal nodes and bias mirror; a shared supply and per-instance
// current references bias them. When sample is non-nil every transistor
// and capacitor receives statistical variation.
func BuildTransistor(caps Caps, cfg ota.Config, p ota.Params, sample *process.Sample) *circuit.Netlist {
	n := circuit.New("gm-C biquad (transistor OTAs)")
	vdd := n.Node("vdd")
	in := n.Node("in")
	n1 := n.Node("n1")
	out := n.Node("out")
	gnd := circuit.Ground
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: gnd, DC: cfg.VDD})
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: gnd, DC: cfg.VCM, ACMag: 1})
	for i, io := range []struct{ inp, inn, out int }{
		{in, out, n1},
		{n1, out, out},
	} {
		prefix := fmt.Sprintf("X%d.", i+1)
		bias := n.Node(prefix + "bias")
		n.MustAdd(&circuit.ISource{Inst: prefix + "IBIAS", Pos: vdd, Neg: bias, DC: cfg.IBias})
		cfg.AddInstance(n, prefix, vdd, io.inp, io.inn, io.out,
			n.Node(prefix+"n1"), n.Node(prefix+"n2"), n.Node(prefix+"outm"),
			n.Node(prefix+"tail"), bias, p, sample)
	}
	c := caps
	if sample != nil {
		c.C1 *= 1 + sample.CapShift(capArea(c.C1))
		c.C2 *= 1 + sample.CapShift(capArea(c.C2))
		if c.C3 > 0 {
			c.C3 *= 1 + sample.CapShift(capArea(c.C3))
		}
	}
	addCaps(n, c, n1, out)
	return n
}

// capArea estimates the plate area of a poly-poly capacitor at
// ~0.9 fF/µm², used to scale local matching variation.
func capArea(c float64) float64 { return c / 0.9e-3 }

func addCaps(n *circuit.Netlist, caps Caps, n1, out int) {
	gnd := circuit.Ground
	n.MustAdd(&circuit.Capacitor{Inst: "C1", A: n1, B: gnd, C: caps.C1})
	n.MustAdd(&circuit.Capacitor{Inst: "C2", A: out, B: gnd, C: caps.C2})
	if caps.C3 > 0 {
		n.MustAdd(&circuit.Capacitor{Inst: "C3", A: n1, B: out, C: caps.C3})
	}
}

// sweep bounds for filter measurement.
const (
	fStart = 1e3
	fStop  = 100e6
)

// Measure runs the AC analysis of a built filter netlist and reduces it
// to the spec figures.
func Measure(n *circuit.Netlist, spec Spec) (Response, error) {
	op, err := analysis.OP(n, nil)
	if err != nil {
		return Response{}, fmt.Errorf("filter: %w", err)
	}
	return measureAt(n, op, spec, nil)
}

// measureAt is Measure about a solved operating point op, sweeping
// through the solver workspace ws (nil allocates).
func measureAt(n *circuit.Netlist, op *analysis.OPResult, spec Spec, ws *analysis.Workspace) (Response, error) {
	ac, err := analysis.ACDecadeWith(n, op, fStart, fStop, 12, ws)
	if err != nil {
		return Response{}, fmt.Errorf("filter: %w", err)
	}
	tf, err := ac.V("out")
	if err != nil {
		return Response{}, err
	}
	return reduce(ac.Freqs, tf, spec)
}

func reduce(freqs []float64, tf []complex128, spec Spec) (Response, error) {
	r := Response{Freqs: freqs, TF: tf}
	r.DCGainDB = measure.DCGainDB(tf)
	if math.IsNaN(r.DCGainDB) || math.IsInf(r.DCGainDB, 0) {
		return r, fmt.Errorf("filter: degenerate DC gain")
	}
	for i, f := range freqs {
		if f > spec.PassbandEdge {
			break
		}
		if dev := math.Abs(measure.GainDB(tf[i]) - r.DCGainDB); dev > r.PassbandDevDB {
			r.PassbandDevDB = dev
		}
	}
	gStop, err := measure.GainAt(freqs, tf, spec.StopbandEdge)
	if err != nil {
		return r, fmt.Errorf("filter: stopband edge outside sweep: %w", err)
	}
	r.StopbandAttenDB = r.DCGainDB - gStop
	if bw, err := measure.Bandwidth3dB(freqs, tf); err == nil {
		r.F3dB = bw
	}
	return r, nil
}
