package filter

import (
	"context"
	"fmt"
	"math"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/core"
	"analogyield/internal/montecarlo"
	"analogyield/internal/ota"
	"analogyield/internal/process"
	"analogyield/internal/wbga"
	"analogyield/internal/yield"
)

// Problem adapts the capacitor design task to the WBGA: two objectives,
// minimise the passband deviation and maximise the stopband attenuation
// (subject to the DC-gain floor via a penalty).
type Problem struct {
	Spec  Spec
	Space CapSpace
	// GM and Ro are the behavioural OTA parameters used during
	// optimisation — the paper's point is that this inner loop runs on
	// the behavioural model, not the transistors.
	GM, Ro float64
}

// NumParams returns 3 (C1, C2, C3).
func (p *Problem) NumParams() int { return 3 }

// NumObjectives returns 2.
func (p *Problem) NumObjectives() int { return 2 }

// Maximize reports (false, true): deviation is minimised, attenuation
// maximised.
func (p *Problem) Maximize() []bool { return []bool{false, true} }

// Evaluate builds the behavioural filter at the candidate capacitors and
// measures its spec figures. It is safe for concurrent use; a WBGA run
// evaluates through NewEvaluator instead.
func (p *Problem) Evaluate(genes []float64) ([]float64, error) {
	return p.evaluate(genes, newSpecProbe(p.Spec, specFreqs(p.Spec), nil))
}

// NewEvaluator returns the evaluator of one WBGA worker
// (wbga.ReusableProblem): Evaluate through a solver workspace and a
// transfer-function buffer of its own.
func (p *Problem) NewEvaluator() func([]float64) ([]float64, error) {
	probe := newSpecProbe(p.Spec, specFreqs(p.Spec), analysis.NewWorkspace())
	return func(genes []float64) ([]float64, error) { return p.evaluate(genes, probe) }
}

func (p *Problem) evaluate(genes []float64, probe *specProbe) ([]float64, error) {
	caps, err := p.Space.Denormalize(genes)
	if err != nil {
		return nil, err
	}
	r, err := probe.measure(BuildBehavioural(caps, p.GM, p.Ro))
	if err != nil {
		return nil, err
	}
	dev := r.PassbandDevDB
	if r.DCGainDB < p.Spec.MinDCGainDB {
		// Penalise designs that lose DC gain so they cannot dominate.
		dev += 10 * (p.Spec.MinDCGainDB - r.DCGainDB)
	}
	return []float64{dev, r.StopbandAttenDB}, nil
}

// OptimizeResult is the outcome of the capacitor MOO.
type OptimizeResult struct {
	Caps     Caps
	Response Response
	// Evaluations is the number of behavioural filter simulations.
	Evaluations int
	// FrontSize is the Pareto-front size of the capacitor MOO.
	FrontSize int
}

// StageFilterMOO labels the capacitor MOO in Observer event streams.
const StageFilterMOO core.Stage = "filter-moo"

// OptimizeOptions configures Optimize. Zero budgets select the paper's
// §5 defaults (30 individuals × 40 generations).
type OptimizeOptions struct {
	PopSize     int // 0 → 30
	Generations int // 0 → 40
	Seed        int64
	Workers     int // 0 → GOMAXPROCS
	// Obs, when non-nil, receives StageStart/GenerationDone/StageEnd
	// events for the capacitor MOO (Stage = StageFilterMOO).
	Obs core.Observer
}

// Optimize runs the paper's §5 capacitor optimisation on the behavioural
// filter and returns the spec-satisfying front design with the largest
// stopband margin. Cancelling ctx stops the MOO within one generation,
// returning ctx.Err().
func Optimize(ctx context.Context, p *Problem, opts OptimizeOptions) (*OptimizeResult, error) {
	if opts.PopSize <= 0 {
		opts.PopSize = 30
	}
	if opts.Generations <= 0 {
		opts.Generations = 40
	}
	emit := func(e core.Event) {
		if opts.Obs != nil {
			opts.Obs.Observe(e)
		}
	}
	totalEvals := opts.PopSize * opts.Generations
	emit(core.StageStart{Stage: StageFilterMOO, Total: totalEvals})
	res, err := wbga.Run(ctx, p, wbga.Options{
		PopSize: opts.PopSize, Generations: opts.Generations,
		Seed: opts.Seed, Workers: opts.Workers,
		OnGeneration: func(gs wbga.GenStats) {
			emit(core.GenerationDone{
				Gen:         gs.Gen,
				Generations: opts.Generations,
				Evals:       gs.Evals,
				TotalEvals:  totalEvals,
				BestFitness: gs.BestFitness,
				CacheHits:   gs.CacheHits,
				CacheMisses: gs.CacheMisses,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	emit(core.StageEnd{Stage: StageFilterMOO})
	best := -math.MaxFloat64
	var bestCaps Caps
	found := false
	probe := newSpecProbe(p.Spec, specFreqs(p.Spec), analysis.NewWorkspace())
	for _, idx := range res.FrontIdx {
		ev := res.Evals[idx]
		caps, err := p.Space.Denormalize(ev.ParamGenes)
		if err != nil {
			continue
		}
		r, err := probe.measure(BuildBehavioural(caps, p.GM, p.Ro))
		if err != nil || !p.Spec.Satisfies(r) {
			continue
		}
		// Rank by the worst spec margin so the chosen design has slack
		// on every axis (needed to survive process variation).
		margin := math.Min(r.StopbandAttenDB-p.Spec.StopbandAttenDB,
			p.Spec.RippleDB-r.PassbandDevDB)
		if margin > best {
			best = margin
			bestCaps = caps
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("filter: no Pareto design satisfies the spec %+v", p.Spec)
	}
	n := BuildBehavioural(bestCaps, p.GM, p.Ro)
	r, err := Measure(n, p.Spec)
	if err != nil {
		return nil, err
	}
	return &OptimizeResult{
		Caps:        bestCaps,
		Response:    r,
		Evaluations: res.Evaluations,
		FrontSize:   len(res.FrontIdx),
	}, nil
}

// YieldResult summarises a transistor-level Monte Carlo verification of
// the final filter (the paper's 500-sample run confirming 100%).
type YieldResult struct {
	Yield   float64
	Samples int
	Failed  int // samples that did not simulate
	Stats   []montecarlo.Stats
	// Strategy names the Monte Carlo estimator used; FullEvals counts
	// transistor-level simulations actually run (equal to Samples for
	// naive MC) and ESS is the effective sample size of the estimate.
	Strategy  string
	FullEvals int
	ESS       float64
}

// VerifyYield runs the transistor-level filter Monte Carlo: every OTA
// transistor and every capacitor receives statistical variation, the
// response is measured, and the spec pass-rate is the yield. Cancelling
// ctx stops the sampling with ctx.Err().
func VerifyYield(ctx context.Context, caps Caps, cfg ota.Config, params ota.Params, spec Spec,
	proc *process.Process, samples int, seed int64) (*YieldResult, error) {
	return VerifyYieldMC(ctx, caps, cfg, params, spec, proc, samples, seed, montecarlo.StrategyNaive)
}

// filterDesign names one nominal transistor-level filter: the key under
// which a workspace memoises its operating point for its samples.
type filterDesign struct {
	caps   Caps
	cfg    ota.Config
	params ota.Params
}

// sampleEvaluator returns the evaluator one Monte Carlo worker of
// VerifyYieldMC runs: it builds the sampled filter, starts Newton from
// the nominal filter's operating point, solved once per workspace
// (analysis.SampleOP), and sweeps the grid points spec reads (freqs,
// from specFreqs) through the worker's own workspace and buffer.
func sampleEvaluator(d filterDesign, spec Spec, freqs []float64) montecarlo.PointEvaluator {
	probe := newSpecProbe(spec, freqs, analysis.NewWorkspace())
	nominal := func() *circuit.Netlist { return BuildTransistor(d.caps, d.cfg, d.params, nil) }
	return func(_ int, s *process.Sample) ([]float64, error) {
		n := BuildTransistor(d.caps, d.cfg, d.params, s)
		op, err := analysis.SampleOP(n, d, nominal, probe.ws)
		if err != nil {
			return nil, fmt.Errorf("filter: %w", err)
		}
		r, err := probe.sweep(n, op)
		if err != nil {
			return nil, err
		}
		return []float64{r.DCGainDB, r.PassbandDevDB, r.StopbandAttenDB}, nil
	}
}

// VerifyYieldMC is VerifyYield with an explicit variance-reduction
// strategy: importance sampling sharpens high-yield estimates at the
// same simulation budget, and the surrogate strategies skip transistor
// simulations whose pass/fail status a cheap regression can already call
// confidently (FullEvals reports what actually ran).
func VerifyYieldMC(ctx context.Context, caps Caps, cfg ota.Config, params ota.Params, spec Spec,
	proc *process.Process, samples int, seed int64, strategy montecarlo.Strategy) (*YieldResult, error) {
	specs := []yield.Spec{
		{Name: "dcgain", Sense: yield.AtLeast, Bound: spec.MinDCGainDB},
		{Name: "passdev", Sense: yield.AtMost, Bound: spec.RippleDB},
		{Name: "stopatten", Sense: yield.AtLeast, Bound: spec.StopbandAttenDB},
	}
	v := montecarlo.VarianceOptions{Strategy: strategy}
	for col, sp := range specs {
		v.Specs = append(v.Specs, montecarlo.SpecBound{
			Col: col, AtMost: sp.Sense == yield.AtMost, Bound: sp.Bound,
		})
	}
	d, freqs := filterDesign{caps, cfg, params}, specFreqs(spec)
	factory := func() montecarlo.PointEvaluator { return sampleEvaluator(d, spec, freqs) }
	var mc *montecarlo.Result
	err := montecarlo.Run(ctx, montecarlo.Plan{
		Proc:     proc,
		Points:   []montecarlo.PointSpec{{Seed: seed, Samples: samples}},
		Metrics:  []string{"dcgain_db", "passdev_db", "stopatten_db"},
		Variance: v,
	}, factory, func(_ int, res *montecarlo.Result, err error) error {
		mc = res
		return err
	})
	if err != nil {
		return nil, err
	}
	y, err := yield.FromWeightedSamples(mc.Samples, mc.Weights, specs, []int{0, 1, 2})
	if err != nil {
		return nil, err
	}
	return &YieldResult{
		Yield: y, Samples: samples, Failed: mc.Failed, Stats: mc.Stats,
		Strategy: strategy.String(), FullEvals: mc.FullEvals, ESS: mc.ESS,
	}, nil
}
