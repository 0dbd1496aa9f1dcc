package montecarlo

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogyield/internal/process"
	"analogyield/internal/yield"
)

// sigmaEval returns the NMOS global Vth shift in sigma units — an
// exactly standard-normal metric, so yields against any bound are
// known analytically.
func sigmaEval(s *process.Sample) ([]float64, error) {
	return []float64{s.GlobalSigmaUnits()[0]}, nil
}

// smoothEval is a smooth function of the global shifts only (no
// mismatch), which the surrogate can learn almost perfectly.
func smoothEval(s *process.Sample) ([]float64, error) {
	u := s.GlobalSigmaUnits()
	return []float64{10 + 2*u[0] - u[2] + 0.3*u[1]*u[3]}, nil
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"":             StrategyNaive,
		"naive":        StrategyNaive,
		"is":           StrategyIS,
		"surrogate":    StrategySurrogate,
		"is+surrogate": StrategyISSurrogate,
	}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
		if name != "" && got.String() != name {
			t.Errorf("Strategy(%v).String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParseStrategy("qmc"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestRunVarianceNaiveDelegates checks the zero VarianceOptions is plain
// Monte Carlo: sample i is exactly the evaluation of process sample
// (seed, i), the statistics are the one-pass reduction of those
// samples, and the result carries no IS weights or filter decisions.
func TestRunVarianceNaiveDelegates(t *testing.T) {
	plan := onePoint(9, 300)
	plan.Workers = 4
	got, err := runOne(context.Background(), plan, shared(sigmaEval))
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{Samples: make([][]float64, 300)}
	for i := range want.Samples {
		want.Samples[i], _ = sigmaEval(proc().NewSample(9, i))
	}
	if err := finishStats(want, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("StrategyNaive result differs from plain sampling")
	}
	if got.Weights != nil || got.Decisions != nil {
		t.Error("naive run must not carry IS weights or filter decisions")
	}
}

// TestISIdenticalAcrossWorkers is the determinism contract for the
// variance strategies: sample i derives from (seed, i) only, so every
// field of the result is bit-identical for any worker count.
func TestISIdenticalAcrossWorkers(t *testing.T) {
	for _, strat := range []Strategy{StrategyIS, StrategySurrogate, StrategyISSurrogate} {
		v := VarianceOptions{Strategy: strat, TrainSamples: 32, CorrectionSamples: 8,
			Specs: []SpecBound{{Col: 0, Bound: 10}}}
		run := func(workers int) *Result {
			t.Helper()
			res, err := runOne(context.Background(),
				Plan{Proc: proc(), Points: []PointSpec{{Seed: 17, Samples: 400}}, Workers: workers, Variance: v},
				shared(smoothEval))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(1), run(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: results differ between 1 and 7 workers", strat)
		}
	}
}

// TestISUnbiasedHighSigmaSpec is the acceptance test for the estimator:
// at a 99.9 %-yield spec (bound 3.09σ) a naive 200-sample run resolves
// nothing — it sees zero failures — while the IS estimator recovers the
// true yield within its own statistical tolerance using a few thousand
// samples. The tolerance is derived from the empirical spread of
// independent IS replicates, not hard-coded.
func TestISUnbiasedHighSigmaSpec(t *testing.T) {
	const bound = 3.0902323061678132 // Φ(bound) = 0.999
	trueYield := 0.999
	pass := []yield.Spec{{Sense: yield.AtMost, Bound: bound}}

	// Naive 200-sample runs: expected failures per run is 0.2, so the
	// typical run reports 100 % yield — the spec is out of reach.
	naive, err := runOne(context.Background(), onePoint(1, 200), shared(sigmaEval))
	if err != nil {
		t.Fatal(err)
	}
	if y, err := yield.FromWeightedSamples(naive.Samples, naive.Weights, pass, []int{0}); err != nil || y != 1 {
		// A different seed could catch a failure; the point stands as
		// long as the estimate cannot distinguish 99.9 % from 100 %.
		t.Logf("naive 200-sample yield = %g (resolution 1/200)", y)
	}

	// 20 independent IS replicates of 1000 samples each.
	const reps = 20
	ests := make([]float64, reps)
	tailHits := 0
	for r := 0; r < reps; r++ {
		plan := onePoint(int64(100+r), 1000)
		plan.Variance.Strategy = StrategyIS
		res, err := runOne(context.Background(), plan, shared(sigmaEval))
		if err != nil {
			t.Fatal(err)
		}
		y, err := yield.FromWeightedSamples(res.Samples, res.Weights, pass, []int{0})
		if err != nil {
			t.Fatalf("weighted yield not ok: %v", err)
		}
		ests[r] = y
		for _, m := range res.Samples {
			if m != nil && m[0] > bound {
				tailHits++
			}
		}
		if res.ESS <= 0 || res.ESS > float64(len(res.Samples)) {
			t.Errorf("replicate %d: implausible ESS %g", r, res.ESS)
		}
	}
	// The proposal must land far more samples in the failure region
	// than the nominal distribution would (expected naive: 1 per 1000).
	if tailHits < 10*reps {
		t.Errorf("only %d tail hits across %d×1000 IS samples; proposal not oversampling the tail", tailHits, reps)
	}
	var mean, ss float64
	for _, e := range ests {
		mean += e
	}
	mean /= reps
	for _, e := range ests {
		d := e - mean
		ss += d * d
	}
	stderr := math.Sqrt(ss/(reps-1)) / math.Sqrt(reps)
	if stderr == 0 {
		t.Fatal("IS replicates degenerate (zero spread)")
	}
	if diff := math.Abs(mean - trueYield); diff > 4.5*stderr {
		t.Errorf("IS yield estimate %g vs true %g: off by %.1f stderr (stderr %g)",
			mean, trueYield, diff/stderr, stderr)
	}
}

// TestISMomentsMatchBruteForce pairs the IS moment estimates against a
// large brute-force run, with tolerance scaled to the pooled standard
// errors of both estimators.
func TestISMomentsMatchBruteForce(t *testing.T) {
	brute, err := runOne(context.Background(), onePoint(2, 100000), shared(sigmaEval))
	if err != nil {
		t.Fatal(err)
	}
	isPlan := onePoint(3, 8000)
	isPlan.Variance.Strategy = StrategyIS
	is, err := runOne(context.Background(), isPlan, shared(sigmaEval))
	if err != nil {
		t.Fatal(err)
	}
	// stderr of a mean is σ/√n with n the effective sample count.
	pooled := math.Sqrt(1/float64(len(brute.Samples)) + 1/is.ESS)
	if diff := math.Abs(is.Stats[0].Mean - brute.Stats[0].Mean); diff > 5*pooled {
		t.Errorf("IS mean %g vs brute %g: off by %g (pooled stderr %g)",
			is.Stats[0].Mean, brute.Stats[0].Mean, diff, pooled)
	}
	// Sigma of a weighted standard-normal estimate: generous 5 % band.
	if s := is.Stats[0].Sigma; math.Abs(s-1) > 0.05 {
		t.Errorf("IS sigma %g, want ~1", s)
	}
	if is.ESS >= float64(len(is.Samples)) {
		t.Errorf("ESS %g not below sample count %d under a non-trivial proposal", is.ESS, len(is.Samples))
	}
}

// TestSurrogateFilterAudit checks the filter's safety contract: every
// sample the surrogate could not classify confidently is simulated, the
// stored value of every simulated sample is the evaluator's true value
// (no prediction ever overwrites a simulation), and the bookkeeping
// adds up.
func TestSurrogateFilterAudit(t *testing.T) {
	const samples = 600
	v := VarianceOptions{
		Strategy:          StrategySurrogate,
		TrainSamples:      48,
		CorrectionSamples: 16,
		Specs:             []SpecBound{{Col: 0, AtMost: false, Bound: 10}},
	}
	plan := onePoint(21, samples)
	plan.Variance = v
	res, err := runOne(context.Background(), plan, shared(smoothEval))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != samples {
		t.Fatalf("decision log covers %d of %d samples", len(res.Decisions), samples)
	}
	simulated, predicted := 0, 0
	for _, d := range res.Decisions {
		if d.Uncertain && !d.Simulated {
			t.Fatalf("sample %d: uncertain but not simulated — unverified disagreement reached Stats", d.Sample)
		}
		if d.Simulated {
			simulated++
			// A simulated slot must hold the evaluator's exact value.
			s := proc().NewSample(21, d.Sample)
			want, _ := smoothEval(s)
			if got := res.Samples[d.Sample]; got == nil || got[0] != want[0] {
				t.Fatalf("sample %d: stored %v, evaluator returns %v", d.Sample, got, want)
			}
		} else {
			predicted++
		}
	}
	if simulated != res.FullEvals || predicted != res.Predicted {
		t.Errorf("bookkeeping: %d simulated / %d predicted vs FullEvals %d / Predicted %d",
			simulated, predicted, res.FullEvals, res.Predicted)
	}
	if res.Predicted == 0 {
		t.Error("filter predicted nothing on a smooth function; no evaluations saved")
	}
	if res.FullEvals >= samples {
		t.Error("filter simulated everything")
	}

	// The filtered estimate must agree with the full simulation.
	full, err := runOne(context.Background(), onePoint(21, samples), shared(smoothEval))
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance is loose relative to the metric spread (~2.3): the GP
	// only approximates the u1·u3 cross term, and that residual is what
	// the uncertainty band and sigma add-back account for.
	if diff := math.Abs(res.Stats[0].Mean - full.Stats[0].Mean); diff > 0.15 {
		t.Errorf("filtered mean %g vs full %g", res.Stats[0].Mean, full.Stats[0].Mean)
	}
	if res.Stats[0].Sigma < full.Stats[0].Sigma*0.8 {
		t.Errorf("filtered sigma %g deflated vs full %g", res.Stats[0].Sigma, full.Stats[0].Sigma)
	}
}

// TestSurrogateParanoidKappaEqualsNaive: an (effectively) infinite
// classification margin forces every sample through the evaluator, and
// the result must then carry the exact sample set of a naive run.
func TestSurrogateParanoidKappaEqualsNaive(t *testing.T) {
	const samples = 200
	v := VarianceOptions{
		Strategy:     StrategySurrogate,
		TrainSamples: 32, CorrectionSamples: 8,
		Kappa: 1e12,
		Specs: []SpecBound{{Col: 0, AtMost: false, Bound: 10}},
	}
	plan := onePoint(5, samples)
	plan.Variance = v
	res, err := runOne(context.Background(), plan, shared(smoothEval))
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != 0 || res.FullEvals != samples {
		t.Fatalf("paranoid filter still predicted %d samples", res.Predicted)
	}
	naive, err := runOne(context.Background(), onePoint(5, samples), shared(smoothEval))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Samples, naive.Samples) {
		t.Error("all-simulated surrogate run's samples differ from naive")
	}
	if !reflect.DeepEqual(res.Stats, naive.Stats) {
		t.Errorf("all-simulated surrogate stats %v differ from naive %v", res.Stats, naive.Stats)
	}
}

// TestRunVarianceBatchMatchesStandalone checks multi-point variance
// runs deliver in point order and reproduce standalone one-point runs
// bit-exactly for any worker count.
func TestRunVarianceBatchMatchesStandalone(t *testing.T) {
	points := []PointSpec{{Seed: 31, Samples: 150}, {Seed: 32, Samples: 90}, {Seed: 33, Samples: 210}}
	v := VarianceOptions{Strategy: StrategyISSurrogate, TrainSamples: 24, CorrectionSamples: 8,
		Specs: []SpecBound{{Col: 0, Bound: 10}}}
	for _, workers := range []int{1, 4} {
		var order []int
		var got []*Result
		err := Run(context.Background(),
			Plan{Proc: proc(), Points: points, Workers: workers, Variance: v}, shared(smoothEval),
			func(p int, res *Result, err error) error {
				if err != nil {
					return err
				}
				order = append(order, p)
				got = append(got, res)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(order, []int{0, 1, 2}) {
			t.Fatalf("workers=%d: delivery order %v", workers, order)
		}
		for p := range points {
			want, err := runOne(context.Background(),
				Plan{Proc: proc(), Points: points[p : p+1], Variance: v}, shared(smoothEval))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[p], want) {
				t.Errorf("workers=%d point %d: batch result differs from standalone", workers, p)
			}
		}
	}
}

// TestSurrogateBandSpreadsOverWorkers: a one-point surrogate run hands
// its uncertain band to the whole pool, not to one worker. The first
// band sample waits until a second evaluator reaches the band, so a
// scheduler that kept the band on one worker fails on the timeout.
func TestSurrogateBandSpreadsOverWorkers(t *testing.T) {
	const train, corr = 32, 8
	plan := onePoint(6, 300)
	plan.Workers = 4
	plan.Variance = VarianceOptions{
		Strategy: StrategySurrogate, TrainSamples: train, CorrectionSamples: corr,
		Kappa: 1e12, Specs: []SpecBound{{Col: 0, Bound: 10}},
	}
	// The band is queued only once the training prefix has finished, so
	// every evaluation after the first train+corr is a band sample.
	var ids, evals, first atomic.Int64
	second := make(chan struct{})
	var once sync.Once
	factory := func() PointEvaluator {
		id := ids.Add(1)
		return func(_ int, s *process.Sample) ([]float64, error) {
			if evals.Add(1) > train+corr {
				if first.CompareAndSwap(0, id) {
					select {
					case <-second:
					case <-time.After(10 * time.Second):
					}
				} else if first.Load() != id {
					once.Do(func() { close(second) })
				}
			}
			return smoothEval(s)
		}
	}
	res, err := runOne(context.Background(), plan, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullEvals != 300 {
		t.Fatalf("paranoid filter simulated %d of 300 samples", res.FullEvals)
	}
	select {
	case <-second:
	default:
		t.Error("the uncertain band ran on one evaluator")
	}
}

func TestRunVarianceAllFailed(t *testing.T) {
	boom := shared(func(*process.Sample) ([]float64, error) { return nil, errors.New("boom") })
	for _, strat := range []Strategy{StrategyIS, StrategySurrogate} {
		plan := onePoint(1, 50)
		plan.Variance = VarianceOptions{Strategy: strat, Specs: []SpecBound{{Col: 0, Bound: 10}}}
		if _, err := runOne(context.Background(), plan, boom); err == nil {
			t.Errorf("%v: all-fail run should error", strat)
		}
	}
}

func TestRunVarianceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	slow := shared(func(s *process.Sample) ([]float64, error) {
		n++
		if n == 10 {
			cancel()
		}
		return sigmaEval(s)
	})
	plan := onePoint(1, 10000)
	plan.Workers = 1
	plan.Variance.Strategy = StrategyIS
	_, err := runOne(ctx, plan, slow)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n > 100 {
		t.Errorf("evaluated %d samples after cancellation", n)
	}
}

func TestVarianceOptionsValidation(t *testing.T) {
	run := func(samples int, v VarianceOptions, eval func(*process.Sample) ([]float64, error)) error {
		plan := onePoint(1, samples)
		plan.Variance = v
		_, err := runOne(context.Background(), plan, shared(eval))
		return err
	}
	bad := VarianceOptions{Strategy: StrategyIS,
		Proposal: &process.Proposal{Components: []process.ProposalComponent{{Weight: -1, Scale: 1}}}}
	if err := run(10, bad, sigmaEval); err == nil {
		t.Error("invalid proposal accepted")
	}
	negCol := VarianceOptions{Strategy: StrategySurrogate, Specs: []SpecBound{{Col: -1}}}
	if err := run(10, negCol, sigmaEval); err == nil {
		t.Error("negative spec column accepted")
	}
	wide := VarianceOptions{Strategy: StrategySurrogate, TrainSamples: 48, CorrectionSamples: 16,
		Specs: []SpecBound{{Col: 5, Bound: 1}}}
	if err := run(300, wide, smoothEval); err == nil {
		t.Error("out-of-range spec column accepted")
	}
	// A surrogate plan without bounds is refused before any sample runs.
	for _, strat := range []Strategy{StrategySurrogate, StrategyISSurrogate} {
		evals := 0
		err := run(300, VarianceOptions{Strategy: strat}, func(s *process.Sample) ([]float64, error) {
			evals++
			return smoothEval(s)
		})
		if !errors.Is(err, ErrSurrogateSpecs) || evals != 0 {
			t.Errorf("%v without spec bounds: err = %v after %d evaluations, want ErrSurrogateSpecs before any", strat, err, evals)
		}
	}
}
