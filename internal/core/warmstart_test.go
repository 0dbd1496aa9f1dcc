package core

import (
	"context"
	"math"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/process"
)

// TestWarmStartMatchesColdOnFlowFront runs the benchmark's flow_naive
// configuration (WBGA 20 × 10, seed 1, 100 samples per Pareto point) and
// re-simulates every Monte Carlo sample of its front both ways: started
// from the point's nominal operating point, as the flow runs it, and
// from the zero start with the full sweep, as it ran before. The two
// agree to well inside the solver's own tolerances, and the flow's
// counters show the saving.
func TestWarmStartMatchesColdOnFlowFront(t *testing.T) {
	if testing.Short() {
		t.Skip("front re-simulation in -short mode")
	}
	prob, proc := NewOTAProblem(), process.C35()
	cfg := FlowConfig{Problem: prob, Proc: proc, PopSize: 20, Generations: 10, MCSamples: 100, Seed: 1}
	res, err := RunFlow(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.OPWarmFallbacks != 0 {
		t.Errorf("flow counted %d warm-start fallbacks, want 0", m.OPWarmFallbacks)
	}
	// Every simulation is one solve; on top come the nominal solves the
	// MC workspaces memoise, at most one per sample chunk of a point.
	sims := int64(res.CacheMisses + res.MCSimulations)
	if maxNominal := int64(len(res.FrontIdx) * 4); m.OPSolves <= sims || m.OPSolves > sims+maxNominal {
		t.Errorf("flow counted %d OP solves, want (%d, %d]", m.OPSolves, sims, sims+maxNominal)
	}

	var warmIters, coldIters, fallbacks, samples int
	var dx, dGain, dPM float64
	for pos, idx := range res.FrontIdx {
		params, err := prob.Space.Denormalize(res.Archive[idx].ParamGenes)
		if err != nil {
			t.Fatal(err)
		}
		seed := cfg.Seed + int64(pos)*1000003
		nominal := func() *circuit.Netlist { return prob.Config.Build(params, nil) }
		opWS, evalWS := analysis.NewWorkspace(), analysis.NewWorkspace()
		for i := 0; i < cfg.MCSamples; i++ {
			n := prob.Config.Build(params, proc.NewSample(seed, i))
			warm, err := analysis.SampleOP(n, params, nominal, opWS)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := analysis.OP(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := range cold.X[:n.NumNodes()] {
				dx = math.Max(dx, math.Abs(warm.X[k]-cold.X[k]))
			}
			warmIters += warm.Iterations
			coldIters += cold.Iterations
			samples++

			perf, err := prob.Config.EvaluateWS(params, proc.NewSample(seed, i), evalWS)
			if err != nil {
				t.Fatal(err)
			}
			ac, err := analysis.ACDecade(n, cold, 100, 1e9, 10)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := ac.V("out")
			if err != nil {
				t.Fatal(err)
			}
			pm, err := measure.PhaseMarginDeg(ac.Freqs, tf)
			if err != nil {
				t.Fatal(err)
			}
			dGain = math.Max(dGain, math.Abs(perf.GainDB-measure.DCGainDB(tf)))
			dPM = math.Max(dPM, math.Abs(perf.PMDeg-pm))
		}
		fallbacks += opWS.Stats().WarmFallbacks
	}
	if dx > 1e-9 || dGain > 1e-6 || dPM > 1e-6 {
		t.Errorf("warm vs cold over %d samples: max |Δx| %.2g V, |Δgain| %.2g dB, |ΔPM| %.2g°; want ≤ 1e-9, 1e-6, 1e-6",
			samples, dx, dGain, dPM)
	}
	if warmIters*2 > coldIters {
		t.Errorf("warm start averaged %.2f iterations per sample against %.2f cold; want under half",
			float64(warmIters)/float64(samples), float64(coldIters)/float64(samples))
	}
	t.Logf("%d samples of %d points: %.2f → %.2f iterations per sample, %d fallbacks; max |Δx| %.2g V, |Δgain| %.2g dB, |ΔPM| %.2g°; flow counters: %d solves, %d iterations, %d fallbacks",
		samples, len(res.FrontIdx), float64(coldIters)/float64(samples), float64(warmIters)/float64(samples),
		fallbacks, dx, dGain, dPM, m.OPSolves, m.OPIterations, m.OPWarmFallbacks)
}
