package wbga

import (
	"context"
	"errors"
	"testing"
)

func TestRunCancelMidRun(t *testing.T) {
	// Cancel from the per-generation callback: the partial archive must
	// come back alongside ctx.Err(), with no front extracted.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const pop = 20
	res, err := Run(ctx, biObjective{}, Options{
		PopSize: pop, Generations: 40, Seed: 1,
		OnGeneration: func(gs GenStats) {
			if gs.Gen == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result not returned")
	}
	// One-generation cancellation latency: gens 1-3 evaluated, gen 4 not.
	if len(res.Evals) != 3*pop {
		t.Errorf("partial archive = %d evaluations, want %d", len(res.Evals), 3*pop)
	}
	if res.Evaluations != 3*pop {
		t.Errorf("Evaluations = %d, want %d", res.Evaluations, 3*pop)
	}
	if res.FrontIdx != nil {
		t.Error("front extracted from an incomplete archive")
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, biObjective{}, Options{PopSize: 10, Generations: 10, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Evals) != 0 {
		t.Errorf("pre-cancelled run evaluated anyway: %+v", res)
	}
}

func TestRunNilContext(t *testing.T) {
	//lint:ignore SA1012 nil ctx tolerated by design for callers predating the ctx API
	res, err := Run(nil, biObjective{}, Options{PopSize: 8, Generations: 4, Seed: 1}) //nolint:staticcheck
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 32 {
		t.Errorf("evaluations = %d", res.Evaluations)
	}
}

func TestGenStatsProgress(t *testing.T) {
	var stats []GenStats
	res, err := Run(context.Background(), biObjective{}, Options{
		PopSize: 10, Generations: 5, Seed: 2,
		OnGeneration: func(gs GenStats) { stats = append(stats, gs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("%d generation reports, want 5", len(stats))
	}
	for i, gs := range stats {
		if gs.Gen != i+1 {
			t.Errorf("report %d has Gen %d", i, gs.Gen)
		}
		if gs.Evals != (i+1)*10 {
			t.Errorf("gen %d: Evals = %d, want %d", gs.Gen, gs.Evals, (i+1)*10)
		}
		if gs.BestFitness < 0 || gs.BestFitness > 1 {
			t.Errorf("gen %d: best fitness %g outside eq. 5 range", gs.Gen, gs.BestFitness)
		}
		if gs.CacheHits+gs.CacheMisses != gs.Evals {
			t.Errorf("gen %d: cache lookups %d != evals %d",
				gs.Gen, gs.CacheHits+gs.CacheMisses, gs.Evals)
		}
	}
	last := stats[len(stats)-1]
	if res.CacheHits != last.CacheHits || res.CacheMisses != last.CacheMisses {
		t.Errorf("result cache counters %d/%d disagree with final report %d/%d",
			res.CacheHits, res.CacheMisses, last.CacheHits, last.CacheMisses)
	}
}
