package montecarlo

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"analogyield/internal/process"
	"analogyield/internal/yield"
)

func proc() *process.Process { return process.C35() }

// vthEval returns the threshold shift of one reference device as the
// single metric — its statistics are known analytically.
func vthEval(s *process.Sample) ([]float64, error) {
	sh := s.DeviceShift(process.NMOS, 10e-6, 10e-6)
	return []float64{1 + sh.DVth}, nil
}

// shared wraps a stateless evaluator as a factory whose workers all
// call it.
func shared(eval func(*process.Sample) ([]float64, error)) Factory {
	return func() PointEvaluator {
		return func(_ int, s *process.Sample) ([]float64, error) { return eval(s) }
	}
}

// onePoint is a plan with a single point.
func onePoint(seed int64, samples int) Plan {
	return Plan{Proc: proc(), Points: []PointSpec{{Seed: seed, Samples: samples}}}
}

// runOne runs a one-point plan and returns the point's result or error.
func runOne(ctx context.Context, plan Plan, factory Factory) (*Result, error) {
	var out *Result
	err := Run(ctx, plan, factory, func(_ int, res *Result, err error) error {
		out = res
		return err
	})
	return out, err
}

func TestRunBasicStats(t *testing.T) {
	plan := onePoint(1, 2000)
	plan.Metrics = []string{"v"}
	res, err := runOne(context.Background(), plan, shared(vthEval))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d", res.Failed)
	}
	st := res.Stats[0]
	if st.Name != "v" {
		t.Errorf("metric name = %q", st.Name)
	}
	if math.Abs(st.Mean-1) > 0.002 {
		t.Errorf("mean = %g, want ~1", st.Mean)
	}
	// Sigma should be close to the global SigmaVth (mismatch is small at
	// 100 µm² area): 0.015 V.
	if st.Sigma < 0.012 || st.Sigma > 0.018 {
		t.Errorf("sigma = %g, want ~0.015", st.Sigma)
	}
	wantDelta := 100 * 3 * st.Sigma / st.Mean
	if math.Abs(st.DeltaPct-wantDelta) > 1e-9 {
		t.Errorf("DeltaPct = %g, want %g", st.DeltaPct, wantDelta)
	}
	if st.Min >= st.Mean || st.Max <= st.Mean {
		t.Error("min/max do not bracket the mean")
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(w int) *Result {
		t.Helper()
		plan := onePoint(42, 400)
		plan.Workers = w
		res, err := runOne(context.Background(), plan, shared(vthEval))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for i := range a.Samples {
		if a.Samples[i][0] != b.Samples[i][0] {
			t.Fatalf("sample %d differs between 1 and 8 workers", i)
		}
	}
}

func TestRunSeedChangesSamples(t *testing.T) {
	a, _ := runOne(context.Background(), onePoint(1, 50), shared(vthEval))
	b, _ := runOne(context.Background(), onePoint(2, 50), shared(vthEval))
	same := 0
	for i := range a.Samples {
		if a.Samples[i][0] == b.Samples[i][0] {
			same++
		}
	}
	if same == len(a.Samples) {
		t.Error("different seeds gave identical sample sets")
	}
}

func TestRunPartialFailures(t *testing.T) {
	n := 0
	eval := func(s *process.Sample) ([]float64, error) {
		n++
		sh := s.DeviceShift(process.NMOS, 1e-6, 1e-6)
		if sh.DVth > 0.01 {
			return nil, errors.New("synthetic convergence failure")
		}
		return []float64{sh.DVth}, nil
	}
	plan := onePoint(3, 300)
	plan.Workers = 1
	res, err := runOne(context.Background(), plan, shared(eval))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Skip("no synthetic failures at this seed (unexpected but harmless)")
	}
	// Stats computed only over successes.
	if res.Stats[0].Max > 0.01 {
		t.Errorf("failed samples leaked into stats: max = %g", res.Stats[0].Max)
	}
	// Yield counts failures as failing.
	passAll := []yield.Spec{{Sense: yield.AtLeast, Bound: math.Inf(-1)}}
	y, err := yield.FromWeightedSamples(res.Samples, res.Weights, passAll, []int{0})
	if err != nil {
		t.Fatalf("yield not ok despite successful samples: %v", err)
	}
	if y >= 1 {
		t.Errorf("yield = %g, want < 1 with failures present", y)
	}
}

func TestRunAllFail(t *testing.T) {
	eval := func(*process.Sample) ([]float64, error) { return nil, errors.New("boom") }
	if _, err := runOne(context.Background(), onePoint(1, 10), shared(eval)); err == nil {
		t.Fatal("all-fail run should error")
	}
}

// TestRunRaggedRowsError: an evaluator whose rows change width must
// fail the point with an error under every reduction, not panic in it.
func TestRunRaggedRowsError(t *testing.T) {
	ragged := func(s *process.Sample) ([]float64, error) {
		if s.GlobalSigmaUnits()[0] > 0 {
			return []float64{1}, nil
		}
		return []float64{1, 2}, nil
	}
	for _, strat := range []Strategy{StrategyNaive, StrategyIS} {
		plan := onePoint(4, 50)
		plan.Variance.Strategy = strat
		_, err := runOne(context.Background(), plan, shared(ragged))
		if err == nil || !strings.Contains(err.Error(), "metrics") {
			t.Errorf("%v: err = %v, want a row-width error", strat, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	factory := shared(vthEval)
	noProc := onePoint(1, 10)
	noProc.Proc = nil
	if _, err := runOne(context.Background(), noProc, factory); err == nil {
		t.Error("nil process accepted")
	}
	if _, err := runOne(context.Background(), onePoint(1, 0), factory); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := runOne(context.Background(), onePoint(1, 5), nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := Run(context.Background(), onePoint(1, 5), factory, nil); err == nil {
		t.Error("nil done callback accepted")
	}
}

func TestMetricNamesDefault(t *testing.T) {
	res, err := runOne(context.Background(), onePoint(1, 10), shared(vthEval))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].Name != "metric0" {
		t.Errorf("default metric name = %q", res.Stats[0].Name)
	}
}

// TestRunFactoryMatchesRun checks evaluators carrying per-worker
// scratch state produce results identical to one stateless evaluator
// shared by every worker, and that each worker receives its own
// evaluator instance.
func TestRunFactoryMatchesRun(t *testing.T) {
	plan := onePoint(3, 200)
	plan.Workers = 4
	want, err := runOne(context.Background(), plan, shared(vthEval))
	if err != nil {
		t.Fatal(err)
	}
	var evaluators atomic.Int64
	factored, err := runOne(context.Background(), plan, func() PointEvaluator {
		evaluators.Add(1)
		scratch := make([]float64, 1) // stands in for a solver workspace
		return func(_ int, s *process.Sample) ([]float64, error) {
			m, err := vthEval(s)
			if err != nil {
				return nil, err
			}
			scratch[0] = m[0]
			return []float64{scratch[0]}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := evaluators.Load(); got != 4 {
		t.Errorf("factory called %d times, want once per worker (4)", got)
	}
	for i := range want.Samples {
		if want.Samples[i][0] != factored.Samples[i][0] {
			t.Fatalf("sample %d differs between shared and per-worker evaluators", i)
		}
	}
}

// TestRunFactoryValidation checks a factory handing out nil evaluators
// fails cleanly under every strategy instead of hanging.
func TestRunFactoryValidation(t *testing.T) {
	for _, strat := range []Strategy{StrategyNaive, StrategyIS, StrategySurrogate} {
		plan := onePoint(1, 80)
		plan.Workers = 2
		plan.Variance = VarianceOptions{Strategy: strat, Specs: []SpecBound{{Col: 0, Bound: 10}}}
		if _, err := runOne(context.Background(), plan, func() PointEvaluator { return nil }); err == nil {
			t.Errorf("%v: all-nil evaluators should error (every sample failed)", strat)
		}
	}
}

// TestRunFactoryCalledAtMostWorkers pins the pool contract: one
// evaluator per worker for the whole run, whatever the strategy's
// phases and however many points the plan has.
func TestRunFactoryCalledAtMostWorkers(t *testing.T) {
	const workers = 3
	for _, strat := range []Strategy{StrategyNaive, StrategyIS, StrategySurrogate} {
		for _, points := range []int{1, 4} {
			plan := Plan{Proc: proc(), Workers: workers, Variance: VarianceOptions{
				Strategy: strat, TrainSamples: 24, CorrectionSamples: 8, Kappa: 1e12,
				Specs: []SpecBound{{Col: 0, Bound: 10}},
			}}
			for p := 0; p < points; p++ {
				plan.Points = append(plan.Points, PointSpec{Seed: int64(p + 1), Samples: 120})
			}
			var calls atomic.Int64
			factory := func() PointEvaluator {
				calls.Add(1)
				return func(_ int, s *process.Sample) ([]float64, error) { return smoothEval(s) }
			}
			if err := Run(context.Background(), plan, factory, func(_ int, _ *Result, err error) error { return err }); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got > workers {
				t.Errorf("%v, %d points: factory called %d times, want at most %d", strat, points, got, workers)
			}
		}
	}
}
