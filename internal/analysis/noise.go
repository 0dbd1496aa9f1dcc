package analysis

import (
	"fmt"
	"math"

	"analogyield/internal/circuit"
	"analogyield/internal/num"
)

// fourKT is 4·k·T at 300 K (J).
const fourKT = 4 * 1.380649e-23 * 300

// mosGamma is the long-channel thermal-noise coefficient of the MOSFET
// drain current PSD, S = 4kT·γ·gm.
const mosGamma = 2.0 / 3.0

// NoiseResult holds a small-signal noise analysis: the output noise
// voltage PSD across frequency, the per-device contributions, and the
// integrated RMS over the swept band.
type NoiseResult struct {
	Freqs     []float64
	OutputPSD []float64            // total output PSD, V²/Hz
	ByDevice  map[string][]float64 // per-source output PSD, V²/Hz
	// TotalRMS is the output noise voltage integrated over the sweep
	// (trapezoidal in linear frequency), volts.
	TotalRMS float64
}

// Noise computes the thermal output noise at a node: every resistor
// contributes a 4kT/R current source and every MOSFET a 4kT·γ·gm drain
// current source; each is propagated to the output through the
// small-signal network at each frequency.
//
// Flicker (1/f) noise is not modelled — the substrate targets the
// paper's AC/variation experiments, where thermal noise suffices to
// exercise the machinery.
func Noise(n *circuit.Netlist, op *OPResult, outNode string, freqs []float64) (*NoiseResult, error) {
	outIdx, ok := n.NodeIndex(outNode)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown output node %q", outNode)
	}
	if outIdx == circuit.Ground {
		return nil, fmt.Errorf("analysis: output node is ground")
	}
	if len(freqs) < 2 {
		return nil, fmt.Errorf("analysis: noise needs at least 2 frequencies")
	}
	if err := validateFreqs(freqs); err != nil {
		return nil, err
	}

	// Collect noise sources: (name, node a, node b, current PSD A²/Hz).
	type source struct {
		name string
		a, b int
		psd  float64
	}
	var sources []source
	for _, d := range n.Devices() {
		switch dev := d.(type) {
		case *circuit.Resistor:
			sources = append(sources, source{dev.Inst, dev.A, dev.B, fourKT / dev.R})
		case *circuit.MOSFET:
			mop := dev.Model.Eval(dev.W, dev.L,
				op.VNode(dev.G), op.VNode(dev.D), op.VNode(dev.S), op.VNode(dev.B))
			gm := math.Abs(mop.Gm)
			if gm > 0 {
				sources = append(sources, source{dev.Inst, dev.D, dev.S, fourKT * mosGamma * gm})
			}
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("analysis: circuit has no thermal noise sources")
	}

	res := &NoiseResult{
		Freqs:     append([]float64(nil), freqs...),
		OutputPSD: make([]float64, len(freqs)),
		ByDevice:  make(map[string][]float64, len(sources)),
	}
	for _, s := range sources {
		res.ByDevice[s.name] = make([]float64, len(freqs))
	}

	nu := n.NumUnknowns()
	rec := &circuit.ACCtx{}
	linearise(n, op, rec)
	cw := num.NewCWorkspace(nu)
	b := make([]complex128, nu)
	x := make([]complex128, nu)
	for fi, f := range freqs {
		rec.Assemble(omega(f), cw.A, cw.B)
		if err := cw.LU.FactorInto(cw.A); err != nil {
			return nil, fmt.Errorf("analysis: noise solve at %g Hz: %w", f, err)
		}
		for _, s := range sources {
			for i := range b {
				b[i] = 0
			}
			// Unit AC current from a to b (leaves a, enters b).
			if s.a != circuit.Ground {
				b[s.a] -= 1
			}
			if s.b != circuit.Ground {
				b[s.b] += 1
			}
			cw.LU.Solve(b, x)
			h := x[outIdx]
			contrib := (real(h)*real(h) + imag(h)*imag(h)) * s.psd
			res.ByDevice[s.name][fi] += contrib
			res.OutputPSD[fi] += contrib
		}
	}

	// Integrated RMS (trapezoid in linear frequency).
	var integral float64
	for i := 1; i < len(freqs); i++ {
		integral += 0.5 * (res.OutputPSD[i-1] + res.OutputPSD[i]) * (freqs[i] - freqs[i-1])
	}
	res.TotalRMS = math.Sqrt(integral)
	return res, nil
}
