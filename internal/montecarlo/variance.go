// Variance-reduced Monte Carlo: importance sampling and a GP surrogate
// filter layered on the deterministic sampling engine.
//
// The naive estimator needs ~100/p samples to resolve a failure
// probability p, which makes high-sigma yield targets (99.9 % and up)
// unreachable inside an optimisation loop. The strategies below keep
// the engine's determinism contract — sample i is always derived from
// (seed, i), so results are bit-identical for any worker count — while
// spending circuit evaluations far more effectively:
//
//   - StrategyIS draws the global-variation point from a proposal
//     distribution that over-samples the tails and reweights each
//     sample by its likelihood ratio (process.NewSampleIS). Estimates
//     are self-normalised, so only weight ratios matter.
//   - StrategySurrogate simulates an initial training batch, fits a
//     small GP (internal/surrogate) mapping the 4-d global shift to the
//     metric vector, and simulates only samples the GP cannot classify
//     confidently against the plan's spec bounds; the rest are
//     answered by the (bias-corrected) prediction. Every decision is
//     logged in Result.Decisions. A surrogate plan must carry spec
//     bounds (ErrSurrogateSpecs): the filter calls pass/fail, which is
//     what a yield check estimates.
//   - StrategyISSurrogate composes both.
//
// A point's phases (train → fit → classify → verify) are sequential, so
// they run on the point's own goroutine; only each phase's circuit
// evaluations go to the pool.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"analogyield/internal/process"
	"analogyield/internal/surrogate"
)

// Strategy selects how the Monte Carlo engine spends its circuit
// evaluations.
type Strategy uint8

const (
	// StrategyNaive is plain Monte Carlo — the default.
	StrategyNaive Strategy = iota
	// StrategyIS draws from an importance-sampling proposal and
	// reweights.
	StrategyIS
	// StrategySurrogate filters samples through a GP surrogate and
	// simulates only the uncertain band.
	StrategySurrogate
	// StrategyISSurrogate composes importance sampling with the
	// surrogate filter.
	StrategyISSurrogate
)

// ParseStrategy maps the flag/config spelling to a Strategy. The empty
// string selects StrategyNaive.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "naive":
		return StrategyNaive, nil
	case "is":
		return StrategyIS, nil
	case "surrogate":
		return StrategySurrogate, nil
	case "is+surrogate":
		return StrategyISSurrogate, nil
	}
	return StrategyNaive, fmt.Errorf("montecarlo: unknown strategy %q (want naive, is, surrogate or is+surrogate)", name)
}

func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyIS:
		return "is"
	case StrategySurrogate:
		return "surrogate"
	case StrategyISSurrogate:
		return "is+surrogate"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

func (s Strategy) usesIS() bool {
	return s == StrategyIS || s == StrategyISSurrogate
}

func (s Strategy) usesSurrogate() bool {
	return s == StrategySurrogate || s == StrategyISSurrogate
}

// SpecBound is a pass/fail bound on one metric column, used by the
// surrogate filter to classify samples: a sample is confidently
// classified only when every bound is cleared (or one is violated) by
// at least Kappa predictive standard deviations.
type SpecBound struct {
	Col    int     // metric column index
	AtMost bool    // true: metric must be ≤ Bound; false: ≥ Bound
	Bound  float64 // the spec limit
}

// FilterDecision records what the surrogate filter did with one sample.
type FilterDecision struct {
	Sample    int  // sample index
	Simulated bool // true: the stored metric vector came from the evaluator
	// Uncertain marks samples the filter could not classify confidently
	// (or never classified, e.g. training fell back) — every uncertain
	// sample is simulated, never answered by the surrogate.
	Uncertain bool
}

// VarianceOptions configures the variance-reduction strategy of a run.
// The zero value selects StrategyNaive and is always valid.
type VarianceOptions struct {
	Strategy Strategy
	// Proposal is the IS sampling distribution; nil selects
	// process.DefaultISProposal(). Ignored by non-IS strategies.
	Proposal *process.Proposal
	// TrainSamples is the number of leading samples simulated to train
	// the surrogate (default 48). Ignored without the surrogate.
	TrainSamples int
	// CorrectionSamples is the number of held-out simulated samples
	// used to measure and subtract the surrogate's prediction bias
	// (default 16). Ignored without the surrogate.
	CorrectionSamples int
	// Kappa is the classification margin in predictive standard
	// deviations (default 3). Larger values simulate more and trust the
	// surrogate less.
	Kappa float64
	// Specs are the bounds the surrogate filter classifies against: a
	// prediction is trusted only when every bound is decisively cleared
	// or one is decisively violated. Required by the surrogate
	// strategies, ignored by the others.
	Specs []SpecBound
}

// ErrSurrogateSpecs refuses a surrogate plan without spec bounds. The
// filter answers a sample only when the prediction clears or violates
// a bound decisively; with none, it has nothing to decide.
var ErrSurrogateSpecs = errors.New("montecarlo: a surrogate strategy needs spec bounds (VarianceOptions.Specs)")

func (v VarianceOptions) withDefaults() VarianceOptions {
	if v.TrainSamples <= 0 {
		v.TrainSamples = 48
	}
	if v.CorrectionSamples <= 0 {
		v.CorrectionSamples = 16
	}
	if v.Kappa <= 0 {
		v.Kappa = 3
	}
	return v
}

func (v *VarianceOptions) validate() error {
	switch v.Strategy {
	case StrategyNaive, StrategyIS, StrategySurrogate, StrategyISSurrogate:
	default:
		return fmt.Errorf("montecarlo: invalid strategy %d", v.Strategy)
	}
	if v.Strategy.usesSurrogate() && len(v.Specs) == 0 {
		return fmt.Errorf("%w: strategy %v", ErrSurrogateSpecs, v.Strategy)
	}
	if v.Strategy.usesIS() && v.Proposal != nil {
		if err := v.Proposal.Validate(); err != nil {
			return err
		}
	}
	for i, sp := range v.Specs {
		if sp.Col < 0 {
			return fmt.Errorf("montecarlo: spec %d has negative column %d", i, sp.Col)
		}
	}
	return nil
}

// point runs point p's strategy phases on the calling goroutine,
// queueing each phase's samples on the pool. The sample stream
// (weights, features, evaluator inputs) is derived purely from (seed,
// index), so the result does not depend on which worker evaluates which
// sample.
func (e *engine) point(ctx context.Context, p int) (*Result, error) {
	proc, v, metrics := e.plan.Proc, e.v, e.plan.Metrics
	seed, samples := e.plan.Points[p].Seed, e.plan.Points[p].Samples
	isOn := v.Strategy.usesIS()
	surOn := v.Strategy.usesSurrogate()

	res := &Result{Samples: make([][]float64, samples)}
	var feats [][]float64
	if isOn {
		res.Weights = make([]float64, samples)
	}
	if surOn {
		feats = make([][]float64, samples)
	}
	// Cheap sequential pre-pass: draw every sample's weight and filter
	// features once, up front. Evaluation workers later re-derive the
	// full sample from its index, so no per-sample RNG state needs to
	// be retained or shared.
	for i := 0; i < samples; i++ {
		var s *process.Sample
		if isOn {
			var lw float64
			s, lw = proc.NewSampleIS(seed, i, v.Proposal)
			res.Weights[i] = math.Exp(lw)
		} else if surOn {
			s = proc.NewSample(seed, i)
		}
		if surOn {
			u := s.GlobalSigmaUnits()
			feats[i] = u[:]
		}
	}

	draw := func(i int) *process.Sample {
		if isOn {
			s, _ := proc.NewSampleIS(seed, i, v.Proposal)
			return s
		}
		return proc.NewSample(seed, i)
	}
	var failed atomic.Int64
	evalOne := func(eval PointEvaluator, i int) {
		if eval == nil {
			failed.Add(1)
			return
		}
		m, err := eval(p, draw(i))
		if err != nil {
			failed.Add(1)
			return
		}
		res.Samples[i] = m
	}
	run := func(idxs []int) { e.run(ctx, idxs, evalOne) }

	if !surOn {
		run(ints(0, samples))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Failed = int(failed.Load())
		if err := finishVariance(res, metrics, nil); err != nil {
			return nil, err
		}
		res.FullEvals = samples
		res.Predicted = 0
		return res, nil
	}

	// Surrogate filter. Simulate the training + correction prefix,
	// fit, then classify the remainder.
	nTrain := v.TrainSamples
	if nTrain > samples {
		nTrain = samples
	}
	nCorr := v.CorrectionSamples
	if nTrain+nCorr > samples {
		nCorr = samples - nTrain
	}
	prefix := nTrain + nCorr

	run(ints(0, prefix))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	decisions := make([]FilterDecision, 0, samples)
	for i := 0; i < prefix; i++ {
		decisions = append(decisions, FilterDecision{Sample: i, Simulated: true})
	}

	var xs, ys [][]float64
	for i := 0; i < nTrain; i++ {
		if res.Samples[i] != nil {
			xs = append(xs, feats[i])
			ys = append(ys, res.Samples[i])
		}
	}

	// surrogateAll evaluates the whole remainder when the filter is
	// unavailable — the run degrades to naive/IS, never to a guess.
	simulateAll := func() (*Result, error) {
		rest := ints(prefix, samples)
		run(rest)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, i := range rest {
			decisions = append(decisions, FilterDecision{Sample: i, Simulated: true, Uncertain: true})
		}
		res.Failed = int(failed.Load())
		res.Decisions = decisions
		if err := finishVariance(res, metrics, nil); err != nil {
			return nil, err
		}
		res.FullEvals = samples
		res.Predicted = 0
		return res, nil
	}

	if len(xs) < 8 || prefix >= samples {
		return simulateAll()
	}
	g, err := surrogate.Train(xs, ys)
	if err != nil {
		return simulateAll()
	}
	width := g.Outputs()
	for i, sp := range v.Specs {
		if sp.Col >= width {
			return nil, fmt.Errorf("montecarlo: spec %d column %d out of range (metric width %d)", i, sp.Col, width)
		}
	}

	// Bias correction from the held-out batch.
	bias := make([]float64, width)
	mean := make([]float64, width)
	sd := make([]float64, width)
	corrN := 0
	for i := nTrain; i < prefix; i++ {
		if res.Samples[i] == nil {
			continue
		}
		if err := g.Predict(feats[i], mean, nil); err != nil {
			return nil, err
		}
		for k := range bias {
			bias[k] += res.Samples[i][k] - mean[k]
		}
		corrN++
	}
	if corrN > 0 {
		for k := range bias {
			bias[k] /= float64(corrN)
		}
	}
	// Classify. Confident predictions are stored (with their conditional
	// variance accumulated for the sigma add-back); the uncertain band
	// goes to the evaluator.
	predVarSum := make([]float64, width)
	var toEval []int
	for i := prefix; i < samples; i++ {
		if err := g.Predict(feats[i], mean, sd); err != nil {
			return nil, err
		}
		for k := range mean {
			mean[k] += bias[k]
		}
		if filterConfident(&v, mean, sd) {
			pred := make([]float64, width)
			copy(pred, mean)
			res.Samples[i] = pred
			w := 1.0
			if res.Weights != nil {
				w = res.Weights[i]
			}
			for k := range sd {
				predVarSum[k] += w * sd[k] * sd[k]
			}
			decisions = append(decisions, FilterDecision{Sample: i})
		} else {
			toEval = append(toEval, i)
			decisions = append(decisions, FilterDecision{Sample: i, Simulated: true, Uncertain: true})
		}
	}

	run(toEval)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Failed = int(failed.Load())
	res.Decisions = decisions
	if err := finishVariance(res, metrics, predVarSum); err != nil {
		return nil, err
	}
	res.FullEvals = prefix + len(toEval)
	res.Predicted = samples - prefix - len(toEval)
	return res, nil
}

// filterConfident decides whether a prediction with uncertainty sd can
// stand in for a simulation: the sample must clear every spec bound, or
// violate one, by Kappa sds of slack.
func filterConfident(v *VarianceOptions, mean, sd []float64) bool {
	clearFail := false
	allClearPass := true
	for _, sp := range v.Specs {
		m, margin := mean[sp.Col], v.Kappa*sd[sp.Col]
		if sp.AtMost {
			if m-margin > sp.Bound {
				clearFail = true
			}
			if m+margin > sp.Bound {
				allClearPass = false
			}
		} else {
			if m+margin < sp.Bound {
				clearFail = true
			}
			if m-margin < sp.Bound {
				allClearPass = false
			}
		}
	}
	return clearFail || allClearPass
}

// waccum is the weighted (West) extension of welford: streaming
// weighted mean and variance with reliability-weight Bessel correction.
type waccum struct {
	n        int
	w, w2    float64
	mean, m2 float64
	min, max float64
}

func (a *waccum) add(w, x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	a.w += w
	a.w2 += w * w
	d := x - a.mean
	a.mean += (w / a.w) * d
	a.m2 += w * d * (x - a.mean)
}

// finishVariance reduces a weighted and/or partially-predicted result.
// predVarSum carries Σ w·sd² over surrogate-predicted samples per
// metric: predictions stand in for conditional means, so their
// conditional variance must be added back (law of total variance) or
// the filter would deflate sigma. A plain unweighted result delegates
// to finishStats, keeping the naive path untouched.
func finishVariance(res *Result, metrics []string, predVarSum []float64) error {
	if res.Weights == nil && predVarSum == nil {
		return finishStats(res, metrics)
	}
	width, err := rowWidth(res)
	if err != nil {
		return err
	}
	acc := make([]waccum, width)
	for i, s := range res.Samples {
		if s == nil {
			continue
		}
		w := 1.0
		if res.Weights != nil {
			w = res.Weights[i]
		}
		for k := range acc {
			acc[k].add(w, s[k])
		}
	}
	res.Stats = make([]Stats, width)
	for k := range acc {
		a := &acc[k]
		variance := 0.0
		if denom := a.w - a.w2/a.w; denom > 0 {
			variance = a.m2 / denom
		}
		if predVarSum != nil && a.w > 0 {
			variance += predVarSum[k] / a.w
		}
		sigma := math.Sqrt(variance)
		delta := 0.0
		if a.mean != 0 {
			delta = 100 * 3 * sigma / math.Abs(a.mean)
		}
		res.Stats[k] = Stats{
			Name: metricName(metrics, k), Mean: a.mean, Sigma: sigma,
			Min: a.min, Max: a.max, DeltaPct: delta,
		}
	}
	res.ESS = acc[0].w * acc[0].w / acc[0].w2
	return nil
}

func ints(lo, hi int) []int {
	if hi <= lo {
		return nil
	}
	xs := make([]int, hi-lo)
	for i := range xs {
		xs[i] = lo + i
	}
	return xs
}
