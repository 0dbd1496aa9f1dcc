package montecarlo

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"analogyield/internal/process"
)

func TestRunCancelMidRun(t *testing.T) {
	// Cancel from inside the evaluator after 50 samples: dispatch must
	// stop promptly (one-sample latency per worker) and the run must
	// report ctx.Err() rather than partial statistics.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	eval := func(s *process.Sample) ([]float64, error) {
		if n.Add(1) == 50 {
			cancel()
		}
		return vthEval(s)
	}
	plan := onePoint(1, 4000)
	plan.Workers = 2
	res, err := runOne(ctx, plan, shared(eval))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned statistics")
	}
	// In-flight samples finish but no new ones are dispatched: with 2
	// workers at most a couple of extra evaluations happen after sample 50.
	if got := n.Load(); got > 60 {
		t.Errorf("%d samples evaluated after cancel at 50; dispatch did not stop", got)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int64
	eval := func(s *process.Sample) ([]float64, error) {
		n.Add(1)
		return vthEval(s)
	}
	plan := onePoint(1, 100)
	plan.Workers = 1
	if _, err := runOne(ctx, plan, shared(eval)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got > 1 {
		t.Errorf("%d samples evaluated under a pre-cancelled context", got)
	}
}
