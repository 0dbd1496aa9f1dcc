package montecarlo

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"analogyield/internal/process"
)

// batchSpecs builds a small batch with distinct seeds and sizes.
func batchSpecs() []PointSpec {
	return []PointSpec{
		{Seed: 100, Samples: 37},
		{Seed: 200, Samples: 64},
		{Seed: 300, Samples: 5},
		{Seed: 400, Samples: 90},
	}
}

// batchEval is vthEval shifted per point, so mixing up point indices or
// seeds shows up as a value mismatch.
func batchEval(point int, s *process.Sample) ([]float64, error) {
	sh := s.DeviceShift(process.NMOS, 10e-6, 10e-6)
	return []float64{float64(point) + sh.DVth, 1 - sh.DVth}, nil
}

// standaloneResults computes every point as its own one-point plan on
// one worker — the semantics a multi-point plan must reproduce bit for
// bit.
func standaloneResults(t *testing.T, specs []PointSpec) []*Result {
	t.Helper()
	out := make([]*Result, len(specs))
	for p, spec := range specs {
		res, err := runOne(context.Background(),
			Plan{Proc: proc(), Points: []PointSpec{spec}, Workers: 1, Metrics: []string{"a", "b"}},
			func() PointEvaluator {
				return func(_ int, s *process.Sample) ([]float64, error) { return batchEval(p, s) }
			})
		if err != nil {
			t.Fatal(err)
		}
		out[p] = res
	}
	return out
}

// TestRunBatchMatchesRunFactory checks a multi-point plan delivers in
// point order and reproduces each point's standalone one-point run bit
// for bit, for any worker count. The two sides cut their samples into
// different item sizes.
func TestRunBatchMatchesRunFactory(t *testing.T) {
	specs := batchSpecs()
	want := standaloneResults(t, specs)
	for _, workers := range []int{1, 2, 8} {
		var got []*Result
		var order []int
		err := Run(context.Background(),
			Plan{Proc: proc(), Points: specs, Workers: workers, Metrics: []string{"a", "b"}},
			func() PointEvaluator { return batchEval },
			func(point int, res *Result, err error) error {
				if err != nil {
					return err
				}
				order = append(order, point)
				got = append(got, res)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if wantOrder := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, wantOrder) {
			t.Fatalf("workers=%d: delivery order %v, want %v", workers, order, wantOrder)
		}
		for p := range specs {
			if !reflect.DeepEqual(got[p], want[p]) {
				t.Errorf("workers=%d: point %d differs from its standalone run", workers, p)
			}
		}
	}
}

func TestRunBatchFailedPoint(t *testing.T) {
	specs := []PointSpec{{Seed: 1, Samples: 10}, {Seed: 2, Samples: 10}, {Seed: 3, Samples: 10}}
	boom := errors.New("solver diverged")
	var pointErrs []error
	var okPoints []int
	err := Run(context.Background(),
		Plan{Proc: proc(), Points: specs, Workers: 4},
		func() PointEvaluator {
			return func(point int, s *process.Sample) ([]float64, error) {
				if point == 1 {
					return nil, boom // every sample of point 1 fails
				}
				return batchEval(point, s)
			}
		},
		func(point int, res *Result, err error) error {
			if err != nil {
				pointErrs = append(pointErrs, err)
				return nil // caller chooses to drop, not abort
			}
			okPoints = append(okPoints, point)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(pointErrs) != 1 {
		t.Fatalf("got %d point errors, want 1", len(pointErrs))
	}
	if want := "montecarlo: every sample failed (10 of 10)"; pointErrs[0].Error() != want {
		t.Errorf("point error = %q, want %q", pointErrs[0], want)
	}
	if !reflect.DeepEqual(okPoints, []int{0, 2}) {
		t.Errorf("successful points = %v, want [0 2]", okPoints)
	}
}

func TestRunBatchDoneErrorAborts(t *testing.T) {
	specs := batchSpecs()
	abort := errors.New("stop here")
	calls := 0
	err := Run(context.Background(),
		Plan{Proc: proc(), Points: specs, Workers: 2},
		func() PointEvaluator { return batchEval },
		func(point int, res *Result, err error) error {
			calls++
			if point == 1 {
				return abort
			}
			return nil
		})
	if !errors.Is(err, abort) {
		t.Fatalf("err = %v, want %v", err, abort)
	}
	if calls != 2 {
		t.Errorf("done called %d times, want 2 (points 0 and 1)", calls)
	}
}

// TestRunBatchCancellation cancels mid-batch and checks that the
// delivered prefix is in order and bit-identical to an uncancelled run.
func TestRunBatchCancellation(t *testing.T) {
	specs := make([]PointSpec, 50)
	for p := range specs {
		specs[p] = PointSpec{Seed: int64(p + 1), Samples: 40}
	}
	want := standaloneResults(t, specs)

	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	var deliveredPoints []int
	var delivered []*Result
	err := Run(ctx,
		Plan{Proc: proc(), Points: specs, Workers: 2, Metrics: []string{"a", "b"}},
		func() PointEvaluator {
			return func(point int, s *process.Sample) ([]float64, error) {
				if evals.Add(1) == 300 {
					cancel() // cancel mid-batch, from inside a worker
				}
				return batchEval(point, s)
			}
		},
		func(point int, res *Result, err error) error {
			if err != nil {
				return err
			}
			deliveredPoints = append(deliveredPoints, point)
			delivered = append(delivered, res)
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(deliveredPoints) == len(specs) {
		t.Fatal("cancellation delivered the whole batch")
	}
	for i, p := range deliveredPoints {
		if p != i {
			t.Fatalf("delivered prefix %v is not 0..k", deliveredPoints)
		}
		if !reflect.DeepEqual(delivered[i], want[p]) {
			t.Errorf("delivered point %d differs from uncancelled reference", p)
		}
	}
}

func TestRunBatchValidation(t *testing.T) {
	factory := func() PointEvaluator { return batchEval }
	done := func(int, *Result, error) error { return nil }
	specs := []PointSpec{{Seed: 1, Samples: 3}, {Seed: 2, Samples: 0}}
	if err := Run(context.Background(), Plan{Proc: proc(), Points: specs}, factory, done); err == nil {
		t.Error("a point with zero samples accepted")
	}
	bad := Plan{Proc: proc(), Points: batchSpecs(), Variance: VarianceOptions{Strategy: Strategy(99)}}
	if err := Run(context.Background(), bad, factory, done); err == nil {
		t.Error("unknown strategy accepted")
	}
	unnamed := Plan{Proc: proc(), Points: batchSpecs(), Dispatcher: failingDispatcher{shards: 1}}
	if err := Run(context.Background(), unnamed, factory, done); err == nil {
		t.Error("a sharded plan without metric names accepted")
	}
	if err := Run(context.Background(), Plan{Proc: proc()}, factory, done); err != nil {
		t.Errorf("empty plan: %v", err)
	}
}

// gaugeRecorder checks that every gauge returns to zero once the batch
// is over (all deltas pair up).
type gaugeRecorder struct {
	busy, queue, inflight atomic.Int64
}

func (g *gaugeRecorder) AddBusyWorkers(d int64)    { g.busy.Add(d) }
func (g *gaugeRecorder) AddQueueDepth(d int64)     { g.queue.Add(d) }
func (g *gaugeRecorder) AddPointsInFlight(d int64) { g.inflight.Add(d) }

func TestRunBatchGaugesSettle(t *testing.T) {
	var g gaugeRecorder
	err := Run(context.Background(),
		Plan{Proc: proc(), Points: batchSpecs(), Workers: 3, Gauges: &g},
		func() PointEvaluator { return batchEval },
		func(int, *Result, error) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]int64{
		"busy_workers": g.busy.Load(), "queue_depth": g.queue.Load(), "points_in_flight": g.inflight.Load(),
	} {
		if v != 0 {
			t.Errorf("gauge %s = %d after completion, want 0", name, v)
		}
	}
}

func TestRunBatchGaugesSettleOnCancel(t *testing.T) {
	var g gaugeRecorder
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	err := Run(ctx,
		Plan{Proc: proc(), Points: batchSpecs(), Workers: 2, Gauges: &g},
		func() PointEvaluator {
			return func(point int, s *process.Sample) ([]float64, error) {
				if evals.Add(1) == 20 {
					cancel()
				}
				return batchEval(point, s)
			}
		},
		func(int, *Result, error) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for name, v := range map[string]int64{
		"busy_workers": g.busy.Load(), "queue_depth": g.queue.Load(), "points_in_flight": g.inflight.Load(),
	} {
		if v != 0 {
			t.Errorf("gauge %s = %d after cancel, want 0", name, v)
		}
	}
}

func BenchmarkRunBatch(b *testing.B) {
	specs := make([]PointSpec, 16)
	for p := range specs {
		specs[p] = PointSpec{Seed: int64(p), Samples: 64}
	}
	plan := Plan{Proc: proc(), Points: specs, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := Run(context.Background(), plan,
			func() PointEvaluator { return batchEval },
			func(int, *Result, error) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
