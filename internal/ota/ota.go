// Package ota implements the paper's benchmark circuit: a symmetrical
// operational transconductance amplifier (Fig 5) with the Table 1
// designable-parameter space, an open-loop AC testbench, and the
// objective evaluation (open-loop gain and phase margin) that feeds the
// multi-objective optimisation.
//
// Topology (three-current-mirror symmetrical OTA):
//
//	M1/M2   NMOS differential pair (fixed geometry, as in the paper)
//	M3/M4   PMOS diode loads            — designable pair (W1, L1)
//	M5/M6   PMOS mirror outputs         — designable pair (W2, L2)
//	M7/M8   NMOS output mirror          — designable pair (W3, L3)
//	M9/M10  NMOS bias/tail mirror       — designable pair (W4, L4)
//
// The mirror ratio B = (W2/L2)/(W1/L1) multiplies the first-stage
// current; output conductance (gain) is set by the channel lengths of
// the output devices while the internal mirror poles (phase margin) are
// set by their gate areas — the physical origin of the gain/PM trade-off
// the paper's Pareto front exposes.
package ota

import (
	"fmt"
	"math"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/mos"
	"analogyield/internal/num"
	"analogyield/internal/process"
)

const um = 1e-6

// Params are the eight designable parameters of the paper's Table 1
// (metres). Each (W, L) pair sizes one matched device pair.
type Params struct {
	W1, L1 float64 // M3/M4: PMOS diode loads
	W2, L2 float64 // M5/M6: PMOS mirror outputs
	W3, L3 float64 // M7/M8: NMOS output mirror
	W4, L4 float64 // M9/M10: bias/tail mirror
}

// Vector returns the parameters in Table 1 order
// (W1, L1, W2, L2, W3, L3, W4, L4).
func (p Params) Vector() []float64 {
	return []float64{p.W1, p.L1, p.W2, p.L2, p.W3, p.L3, p.W4, p.L4}
}

// FromVector builds Params from a Table 1-ordered slice.
func FromVector(v []float64) (Params, error) {
	if len(v) != 8 {
		return Params{}, fmt.Errorf("ota: parameter vector has %d entries, want 8", len(v))
	}
	return Params{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]}, nil
}

// MirrorRatio returns B = (W2/L2)/(W1/L1), the output current
// multiplication of the symmetrical OTA.
func (p Params) MirrorRatio() float64 {
	return (p.W2 / p.L2) / (p.W1 / p.L1)
}

// Space is the box-constrained parameter space of Table 1. Names returns
// the Table 1 labels; Normalize/Denormalize map between physical values
// and the GA's [0,1] genes.
type Space struct {
	Lo, Hi [8]float64 // metres, Table 1 order
}

// DefaultSpace returns the paper's Table 1 ranges:
// W in [10 µm, 60 µm], L in [0.35 µm, 4 µm] for all four pairs.
func DefaultSpace() Space {
	var s Space
	for i := 0; i < 8; i += 2 {
		s.Lo[i], s.Hi[i] = 10*um, 60*um // widths
		s.Lo[i+1], s.Hi[i+1] = 0.35*um, 4*um
	}
	return s
}

// Names returns the Table 1 parameter labels in order.
func (Space) Names() []string {
	return []string{"W1", "L1", "W2", "L2", "W3", "L3", "W4", "L4"}
}

// Denormalize maps 8 genes in [0,1] to physical Params.
func (s Space) Denormalize(genes []float64) (Params, error) {
	if len(genes) != 8 {
		return Params{}, fmt.Errorf("ota: %d genes, want 8", len(genes))
	}
	v := make([]float64, 8)
	for i, g := range genes {
		v[i] = s.Lo[i] + num.Clamp(g, 0, 1)*(s.Hi[i]-s.Lo[i])
	}
	return FromVector(v)
}

// Normalize maps physical Params to genes in [0,1].
func (s Space) Normalize(p Params) []float64 {
	v := p.Vector()
	g := make([]float64, 8)
	for i := range v {
		g[i] = num.Clamp((v[i]-s.Lo[i])/(s.Hi[i]-s.Lo[i]), 0, 1)
	}
	return g
}

// Config is the fixed testbench configuration: supply, bias, load,
// diff-pair geometry and nominal device models (0.35 µm class, standing
// in for the AMS C35B4 BSim3v3 deck).
type Config struct {
	VDD   float64 // supply, V
	VCM   float64 // input common mode, V
	IBias float64 // reference current into the bias mirror, A
	CLoad float64 // single-ended load capacitance, F

	M1W, M1L float64 // differential pair geometry (fixed per the paper)

	NMOS, PMOS mos.Params
}

// DefaultConfig returns the benchmark conditions used throughout the
// repository: 3.3 V supply, 1.5 V common mode, 10 µA bias, 2 pF load.
// The load was calibrated so the Pareto knee falls where the paper's
// does: gains around 50 dB trading against phase margins in the
// 80s-of-degrees, with ΔGain ≈ 0.4-0.5% and ΔPM ≈ 1.1-1.6% from the
// 0.35 µm-class statistical models.
func DefaultConfig() Config {
	return Config{
		VDD:   3.3,
		VCM:   1.5,
		IBias: 10e-6,
		CLoad: 2e-12,
		M1W:   20 * um,
		M1L:   1 * um,
		NMOS:  mos.NominalNMOS(),
		PMOS:  mos.NominalPMOS(),
	}
}

// modelFor applies one device's statistical shift (nil sample = nominal).
func modelFor(base mos.Params, sample *process.Sample, w, l float64) mos.Params {
	if sample == nil {
		return base
	}
	return base.Applied(sample.DeviceShift(base.Class, w, l))
}

// Build constructs the open-loop testbench netlist for the given
// designable parameters. When sample is non-nil, every transistor
// receives its own statistical shift (global + Pelgrom mismatch), drawn
// in a fixed device order (M1..M10) for determinism.
//
// The signal input is the non-inverting gate ("inp" node driven by VIN
// with ACMag 1); the inverting gate is held at the common mode. The
// open-loop transfer function is V(out)/V(in).
func (c Config) Build(p Params, sample *process.Sample) *circuit.Netlist {
	n := circuit.New("symmetrical OTA testbench")
	vdd := n.Node("vdd")
	inp := n.Node("inp") // non-inverting input (signal)
	inn := n.Node("inn") // inverting input (AC ground)
	n1 := n.Node("n1")   // drain of M1 / gate of M3, M5
	n2 := n.Node("n2")   // drain of M2 / gate of M4, M6
	outm := n.Node("outm")
	out := n.Node("out")
	tail := n.Node("tail")
	bias := n.Node("bias")
	gnd := circuit.Ground

	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: gnd, DC: c.VDD})
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: inp, Neg: gnd, DC: c.VCM, ACMag: 1})
	n.MustAdd(&circuit.ISource{Inst: "IBIAS", Pos: vdd, Neg: bias, DC: c.IBias})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: gnd, C: c.CLoad})
	// DC servo: a huge-time-constant RC feedback to the inverting gate
	// fixes the output operating point at the common mode (the standard
	// open-loop-gain testbench trick). At DC the gate draws no current,
	// so V(inn) = V(out) and unity feedback centres the bias — even when
	// Monte Carlo mismatch introduces an input-referred offset that
	// would otherwise rail a truly open-loop output. At every AC
	// frequency of interest the 1 GΩ / 1 F corner (~0.16 nHz) makes the
	// feedback path transparent, so the measured response is open-loop.
	n.MustAdd(&circuit.Resistor{Inst: "RFB", A: out, B: inn, R: 1e9})
	n.MustAdd(&circuit.Capacitor{Inst: "CFB", A: inn, B: gnd, C: 1})

	c.AddInstance(n, "", vdd, inp, inn, out, n1, n2, outm, tail, bias, p, sample)
	return n
}

// AddInstance adds the ten transistors of one symmetrical OTA to an
// existing netlist. All node indices are supplied by the caller (which
// lets larger circuits, like the §5 filter, instantiate several OTAs
// with private internal nodes). Device names get the given prefix, so
// instances stay uniquely named. The bias mirror (M9/M10) is included;
// the caller supplies the bias node fed by a current reference.
func (c Config) AddInstance(n *circuit.Netlist, prefix string,
	vdd, inp, inn, out, n1, n2, outm, tail, bias int,
	p Params, sample *process.Sample) {
	gnd := circuit.Ground
	name := func(s string) string { return prefix + s }
	// Differential pair: M2 takes the signal (non-inverting path to the
	// output through M4/M6), M1 is the inverting-side device.
	n.MustAdd(&circuit.MOSFET{Inst: name("M1"), D: n1, G: inn, S: tail, B: gnd,
		W: c.M1W, L: c.M1L, Model: modelFor(c.NMOS, sample, c.M1W, c.M1L)})
	n.MustAdd(&circuit.MOSFET{Inst: name("M2"), D: n2, G: inp, S: tail, B: gnd,
		W: c.M1W, L: c.M1L, Model: modelFor(c.NMOS, sample, c.M1W, c.M1L)})
	// PMOS diode loads.
	n.MustAdd(&circuit.MOSFET{Inst: name("M3"), D: n1, G: n1, S: vdd, B: vdd,
		W: p.W1, L: p.L1, Model: modelFor(c.PMOS, sample, p.W1, p.L1)})
	n.MustAdd(&circuit.MOSFET{Inst: name("M4"), D: n2, G: n2, S: vdd, B: vdd,
		W: p.W1, L: p.L1, Model: modelFor(c.PMOS, sample, p.W1, p.L1)})
	// PMOS mirror outputs.
	n.MustAdd(&circuit.MOSFET{Inst: name("M5"), D: outm, G: n1, S: vdd, B: vdd,
		W: p.W2, L: p.L2, Model: modelFor(c.PMOS, sample, p.W2, p.L2)})
	n.MustAdd(&circuit.MOSFET{Inst: name("M6"), D: out, G: n2, S: vdd, B: vdd,
		W: p.W2, L: p.L2, Model: modelFor(c.PMOS, sample, p.W2, p.L2)})
	// NMOS output mirror.
	n.MustAdd(&circuit.MOSFET{Inst: name("M7"), D: outm, G: outm, S: gnd, B: gnd,
		W: p.W3, L: p.L3, Model: modelFor(c.NMOS, sample, p.W3, p.L3)})
	n.MustAdd(&circuit.MOSFET{Inst: name("M8"), D: out, G: outm, S: gnd, B: gnd,
		W: p.W3, L: p.L3, Model: modelFor(c.NMOS, sample, p.W3, p.L3)})
	// Bias/tail mirror.
	n.MustAdd(&circuit.MOSFET{Inst: name("M9"), D: bias, G: bias, S: gnd, B: gnd,
		W: p.W4, L: p.L4, Model: modelFor(c.NMOS, sample, p.W4, p.L4)})
	n.MustAdd(&circuit.MOSFET{Inst: name("M10"), D: tail, G: bias, S: gnd, B: gnd,
		W: p.W4, L: p.L4, Model: modelFor(c.NMOS, sample, p.W4, p.L4)})
}

// Perf holds the measured performance of one OTA instance.
type Perf struct {
	GainDB  float64 // open-loop DC gain, dB
	PMDeg   float64 // phase margin, degrees
	UnityHz float64 // unity-gain frequency, Hz
	BW3dB   float64 // −3 dB bandwidth, Hz
	VOut    float64 // DC output voltage, V (bias sanity)
}

// sweepStart/sweepStop bound the open-loop AC sweep. The start must sit
// well below the dominant pole (tens of kHz here) for the first point to
// approximate the DC gain.
const (
	sweepStart = 100.0
	sweepStop  = 1e9
)

// evalFreqs is the grid EvaluateWS measures on: the sweep at 10 points
// per decade, as ACDecade lays it out.
var evalFreqs = func() []float64 {
	f, err := analysis.DecadeFreqs(sweepStart, sweepStop, 10)
	if err != nil {
		panic(err)
	}
	return f
}()

// Evaluate builds and simulates the testbench, returning the measured
// performance. It is the objective function of the paper's MOO step.
func (c Config) Evaluate(p Params, sample *process.Sample) (Perf, error) {
	return c.EvaluateWS(p, sample, nil)
}

// EvaluateWS is Evaluate with a reusable solver workspace: the operating
// point and AC sweep solve through ws instead of allocating fresh
// matrices, factorisations and vectors, and a sampled evaluation finds
// its design's nominal operating point memoised there (see solve). A
// nil ws allocates internally (identical to Evaluate). A workspace
// serves one goroutine at a time — give each evaluation worker its own.
//
// The sweep stops at the last point the measurements read: once both
// the unity-gain and the −3 dB crossings have been passed (each the
// first point whose gain falls below its threshold from at or above it,
// as measure.UnityGainFreq and measure.Bandwidth3dB find them). Every
// point is independent of the others (see analysis.ACPrefix), so every
// figure and every error equals that of the full sweep bit for bit.
func (c Config) EvaluateWS(p Params, sample *process.Sample, ws *analysis.Workspace) (Perf, error) {
	n, op, vout, err := c.solve(p, sample, ws)
	if err != nil {
		return Perf{}, err
	}
	out, _ := n.NodeIndex("out")
	tf := make([]complex128, 0, len(evalFreqs))
	var g0, prev, fu float64
	unity, bw := false, false
	err = analysis.ACPrefix(n, op, evalFreqs, ws, func(i int, x []complex128) bool {
		tf = append(tf, x[out])
		g := measure.GainDB(x[out])
		if i == 0 {
			g0, prev = g, g
			return true
		}
		if !unity && prev >= 0 && g < 0 {
			unity = true
			// PhaseAt reads the sweep up to fu, which rounding may
			// place a hair above this point.
			fu, _ = measure.UnityGainFreq(evalFreqs[:i+1], tf)
		}
		bw = bw || (prev >= g0-3 && g < g0-3)
		prev = g
		return !(unity && bw && fu <= evalFreqs[i])
	})
	if err != nil {
		return Perf{}, fmt.Errorf("ota: %w", err)
	}
	return perfFrom(evalFreqs[:len(tf)], tf, vout)
}

// Response returns the open-loop frequency response (Fig 8's series) at
// pointsPerDecade resolution, over the whole sweep.
func (c Config) Response(p Params, sample *process.Sample, pointsPerDecade int) ([]float64, []complex128, error) {
	n, op, _, err := c.solve(p, sample, nil)
	if err != nil {
		return nil, nil, err
	}
	ac, err := analysis.ACDecade(n, op, sweepStart, sweepStop, pointsPerDecade)
	if err != nil {
		return nil, nil, fmt.Errorf("ota: %w", err)
	}
	tf, err := ac.V("out")
	if err != nil {
		return nil, nil, err
	}
	return ac.Freqs, tf, nil
}

// design names one nominal testbench: the key under which a workspace
// memoises its operating point for the design's samples.
type design struct {
	c Config
	p Params
}

// solve builds the testbench and solves its operating point, returning
// the netlist, the operating point and the DC output voltage. A nominal
// testbench starts Newton from zero; a sampled one starts from its
// design's nominal operating point (analysis.SampleOP), so the start is
// a function of the design alone and results do not depend on which
// workspace evaluates which sample.
func (c Config) solve(p Params, sample *process.Sample, ws *analysis.Workspace) (*circuit.Netlist, *analysis.OPResult, float64, error) {
	if err := validate(p); err != nil {
		return nil, nil, 0, err
	}
	n := c.Build(p, sample)
	var op *analysis.OPResult
	var err error
	if sample == nil {
		op, err = analysis.OP(n, &analysis.OPOptions{WS: ws})
	} else {
		op, err = analysis.SampleOP(n, design{c, p}, func() *circuit.Netlist { return c.Build(p, nil) }, ws)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("ota: %w", err)
	}
	vout, _ := op.V("out")
	return n, op, vout, nil
}

func perfFrom(freqs []float64, tf []complex128, vout float64) (Perf, error) {
	perf := Perf{VOut: vout}
	perf.GainDB = measure.DCGainDB(tf)
	if math.IsNaN(perf.GainDB) || math.IsInf(perf.GainDB, 0) {
		return perf, fmt.Errorf("ota: degenerate gain")
	}
	pm, err := measure.PhaseMarginDeg(freqs, tf)
	if err != nil {
		return perf, fmt.Errorf("ota: phase margin: %w", err)
	}
	perf.PMDeg = pm
	if fu, err := measure.UnityGainFreq(freqs, tf); err == nil {
		perf.UnityHz = fu
	}
	if bw, err := measure.Bandwidth3dB(freqs, tf); err == nil {
		perf.BW3dB = bw
	}
	return perf, nil
}

func validate(p Params) error {
	for i, v := range p.Vector() {
		if v <= 0 {
			return fmt.Errorf("ota: non-positive parameter %d (%g)", i, v)
		}
	}
	return nil
}

// NominalParams returns a reasonable mid-space design used by examples
// and as a sanity anchor in tests.
func NominalParams() Params {
	return Params{
		W1: 15 * um, L1: 1 * um,
		W2: 45 * um, L2: 1.5 * um,
		W3: 20 * um, L3: 1.5 * um,
		W4: 20 * um, L4: 2 * um,
	}
}
