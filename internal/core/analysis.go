package core

import (
	"context"
	"fmt"

	"analogyield/internal/montecarlo"
	"analogyield/internal/process"
	"analogyield/internal/yield"
)

// CornerResult is the performance of one design at one process corner.
type CornerResult struct {
	Corner     process.Corner
	Objectives []float64
	Err        error
}

// CornerAnalysis evaluates a design (given as normalised parameter
// genes) at the five classic process corners at nSigma. It complements
// the statistical variation model: corners bound the global component
// of variation while Monte Carlo also captures local mismatch. The
// corners evaluate through one solver workspace when the problem
// accepts one, so the design's nominal operating point is solved once.
func CornerAnalysis(prob CircuitProblem, proc *process.Process, genes []float64, nSigma float64) []CornerResult {
	eval := mcFactory(prob, [][]float64{genes}, nil)()
	out := make([]CornerResult, 0, 5)
	for _, c := range process.Corners() {
		objs, err := eval(0, proc.CornerSample(c, nSigma))
		out = append(out, CornerResult{Corner: c, Objectives: objs, Err: err})
	}
	return out
}

// YieldVerification is the paper's §4.4 closing check: a Monte Carlo run
// at the selected design confirming that the guard-banded targets
// deliver the specified performance at (ideally) 100% yield.
type YieldVerification struct {
	Yield   float64
	Samples int
	Stats   []montecarlo.Stats
	// Strategy names the Monte Carlo strategy used; FullEvals counts
	// circuit simulations actually run (equal to Samples for naive MC)
	// and ESS is the effective sample size of the estimate.
	Strategy  string
	FullEvals int
	ESS       float64
}

// VerifyDesignYield runs samples Monte Carlo simulations of the circuit
// at the given design genes and reports the fraction meeting both specs
// (the paper runs 500 samples and verifies 100%). Cancelling ctx stops
// the sampling with ctx.Err().
func VerifyDesignYield(ctx context.Context, prob CircuitProblem, proc *process.Process, genes []float64,
	spec0, spec1 yield.Spec, samples int, seed int64) (*YieldVerification, error) {
	return VerifyDesignYieldMC(ctx, prob, proc, genes, spec0, spec1, samples, seed, montecarlo.StrategyNaive)
}

// VerifyDesignYieldMC is VerifyDesignYield with an explicit
// variance-reduction strategy. Importance sampling resolves yields naive
// MC cannot (a 99.9 % target needs ~100/p ≈ 100,000 naive samples);
// surrogate strategies classify in spec space, simulating only samples
// whose pass/fail status the filter cannot call confidently, so
// FullEvals reports the circuit simulations the filter saved.
func VerifyDesignYieldMC(ctx context.Context, prob CircuitProblem, proc *process.Process, genes []float64,
	spec0, spec1 yield.Spec, samples int, seed int64, strategy montecarlo.Strategy) (*YieldVerification, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("core: non-positive sample count %d", samples)
	}
	specs := []yield.Spec{spec0, spec1}
	v := montecarlo.VarianceOptions{Strategy: strategy}
	for col, sp := range specs {
		v.Specs = append(v.Specs, montecarlo.SpecBound{
			Col: col, AtMost: sp.Sense == yield.AtMost, Bound: sp.Bound,
		})
	}
	var mc *montecarlo.Result
	err := montecarlo.Run(ctx, montecarlo.Plan{
		Proc:     proc,
		Points:   []montecarlo.PointSpec{{Seed: seed, Samples: samples}},
		Metrics:  prob.ObjectiveNames(),
		Variance: v,
	}, mcFactory(prob, [][]float64{genes}, nil), func(_ int, res *montecarlo.Result, err error) error {
		mc = res
		return err
	})
	if err != nil {
		return nil, err
	}
	y, err := yield.FromWeightedSamples(mc.Samples, mc.Weights, specs, []int{0, 1})
	if err != nil {
		return nil, err
	}
	return &YieldVerification{
		Yield: y, Samples: samples, Stats: mc.Stats,
		Strategy: strategy.String(), FullEvals: mc.FullEvals, ESS: mc.ESS,
	}, nil
}

// GenesForDesign converts a Design's interpolated physical parameters
// back into normalised genes for the given problem, so the design can be
// re-simulated (corner analysis, yield verification, Table 4).
// It requires the problem to expose the inverse mapping; the OTA problem
// does via its Space.
func (p *OTAProblem) GenesForDesign(d *Design) ([]float64, error) {
	return p.GenesFromParams(d.Params)
}

// GeneInverter is the optional inverse mapping of a CircuitProblem: from
// table-stored physical parameter values back to normalised genes, so an
// interpolated Design can be re-simulated.
type GeneInverter interface {
	GenesFromParams(tableVals []float64) ([]float64, error)
}

// GenesFromParams implements GeneInverter for the OTA problem.
func (p *OTAProblem) GenesFromParams(vals []float64) ([]float64, error) {
	params, err := p.ParamsFromTableValues(vals)
	if err != nil {
		return nil, err
	}
	return p.Space.Normalize(params), nil
}

// YieldTargetResult is the outcome of DesignForYieldTarget.
type YieldTargetResult struct {
	Design       *Design
	Verification *YieldVerification
	// Scale is the guard-band multiplier that achieved the target (1 is
	// the paper's plain ±3σ band).
	Scale      float64
	Iterations int
}

// DesignForYieldTarget closes the loop the paper leaves open: it runs
// the Table 3 query, verifies the achieved yield by Monte Carlo, and —
// when the verified yield falls short of the target — widens the guard
// band and repeats. It returns the first design meeting the target, or
// an error when the front runs out of headroom.
func DesignForYieldTarget(ctx context.Context, m *Model, prob CircuitProblem, proc *process.Process,
	spec0, spec1 yield.Spec, targetYield float64, samples int, seed int64) (*YieldTargetResult, error) {
	inv, ok := prob.(GeneInverter)
	if !ok {
		return nil, fmt.Errorf("core: problem %T cannot invert designs (no GenesFromParams)", prob)
	}
	if targetYield <= 0 || targetYield > 1 {
		return nil, fmt.Errorf("core: target yield %g outside (0, 1]", targetYield)
	}
	scale := 1.0
	const maxIter = 8
	var lastErr error
	for it := 1; it <= maxIter; it++ {
		d, err := m.DesignForScaled(spec0, spec1, scale)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("core: guard band exhausted the front at scale %.2f (%v); best attempt: %w", scale, err, lastErr)
			}
			return nil, err
		}
		genes, err := inv.GenesFromParams(d.Params)
		if err != nil {
			return nil, err
		}
		ver, err := VerifyDesignYield(ctx, prob, proc, genes, spec0, spec1, samples, seed)
		if err != nil {
			return nil, err
		}
		if ver.Yield >= targetYield {
			return &YieldTargetResult{Design: d, Verification: ver, Scale: scale, Iterations: it}, nil
		}
		lastErr = fmt.Errorf("scale %.2f verified yield %.3f < target %.3f", scale, ver.Yield, targetYield)
		scale *= 1.5
	}
	return nil, fmt.Errorf("core: yield target not reached after %d guard-band expansions: %w", maxIter, lastErr)
}
