package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"analogyield/internal/process"
)

// threeObjProblem violates the two-objective table-model contract.
type threeObjProblem struct{ synthProblem }

func (threeObjProblem) ObjectiveNames() []string { return []string{"a", "b", "c"} }

func TestFlowConfigValidate(t *testing.T) {
	ok := FlowConfig{Problem: synthProblem{}, Proc: process.C35()}
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero-value budgets rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*FlowConfig)
		want string
	}{
		{"nil problem", func(c *FlowConfig) { c.Problem = nil }, "nil problem"},
		{"nil process", func(c *FlowConfig) { c.Proc = nil }, "nil process"},
		{"three objectives", func(c *FlowConfig) { c.Problem = threeObjProblem{} }, "2 objectives"},
		{"negative pop", func(c *FlowConfig) { c.PopSize = -1 }, "PopSize"},
		{"pop of one", func(c *FlowConfig) { c.PopSize = 1 }, "PopSize"},
		{"negative generations", func(c *FlowConfig) { c.Generations = -3 }, "Generations"},
		{"negative mc", func(c *FlowConfig) { c.MCSamples = -200 }, "MCSamples"},
		{"negative workers", func(c *FlowConfig) { c.Workers = -2 }, "Workers"},
		{"negative dropped fraction", func(c *FlowConfig) { c.MaxDroppedFraction = -0.5 }, "MaxDroppedFraction"},
		{"file and store", func(c *FlowConfig) { c.Checkpoint, c.CheckpointStore = "flow.ckpt", &memCheckpoint{} }, "not both"},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// RunFlow must route through Validate: a population of one, which
	// the WBGA cannot breed from, is refused before any work runs.
	if _, err := RunFlow(context.Background(), FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(), PopSize: 1,
	}); !errors.Is(err, ErrPopSize) {
		t.Errorf("RunFlow bypassed Validate: %v", err)
	}
}

func TestFlowConfigDefaults(t *testing.T) {
	// Zero values select the documented paper defaults.
	c := FlowConfig{}.withDefaults()
	if c.PopSize != 100 || c.Generations != 100 || c.MCSamples != 200 {
		t.Errorf("paper budgets not defaulted: pop=%d gen=%d mc=%d",
			c.PopSize, c.Generations, c.MCSamples)
	}
	if c.MaxDroppedFraction != 0.25 {
		t.Errorf("MaxDroppedFraction default = %g, want 0.25", c.MaxDroppedFraction)
	}
	if c.CheckpointEvery != 16 {
		t.Errorf("CheckpointEvery default = %d, want 16", c.CheckpointEvery)
	}
	// Explicit values survive.
	c = FlowConfig{PopSize: 7, Generations: 9, MCSamples: 11}.withDefaults()
	if c.PopSize != 7 || c.Generations != 9 || c.MCSamples != 11 {
		t.Error("explicit budgets overridden")
	}
}

func TestRunFlowCancelMidMOO(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const pop = 10
	res, err := RunFlow(ctx, FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: pop, Generations: 50, MCSamples: 10, Seed: 4,
		Obs: ObserverFunc(func(e Event) {
			if g, ok := e.(GenerationDone); ok && g.Gen == 2 {
				cancel()
			}
		}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result not preserved")
	}
	// Cancellation latency is bounded by one generation: the archive
	// holds exactly the generations evaluated before the cancel took
	// effect (gen 1-2, since the GA checks ctx before evaluating gen 3).
	if got := len(res.Archive); got != 2*pop {
		t.Errorf("partial archive has %d evaluations, want %d", got, 2*pop)
	}
	if res.Model != nil {
		t.Error("cancelled flow produced a model")
	}
}

func TestRunFlowCancelMidMC(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckpt := filepath.Join(t.TempDir(), "flow.ckpt")
	mcDone := 0
	res, err := RunFlow(ctx, FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 24, Generations: 12, MCSamples: 30, Seed: 1,
		Checkpoint: ckpt,
		Obs: ObserverFunc(func(e Event) {
			if _, ok := e.(MCPointDone); ok {
				mcDone++
				if mcDone == 2 {
					cancel()
				}
			}
		}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Points) != 2 {
		t.Fatalf("partial result should hold the 2 completed points, got %+v", res)
	}
	// Cancellation must have left a resumable checkpoint with the MOO
	// stage plus both completed points.
	ck, lerr := loadCheckpoint(ckpt)
	if lerr != nil {
		t.Fatalf("no checkpoint after cancel: %v", lerr)
	}
	if len(ck.Done) != 2 || len(ck.Archive) != 24*12 {
		t.Errorf("checkpoint holds %d MC points / %d archive entries, want 2 / 288",
			len(ck.Done), len(ck.Archive))
	}
}

func TestRunFlowResumeBitIdentical(t *testing.T) {
	base := FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 24, Generations: 12, MCSamples: 30, Seed: 1,
	}
	want, err := RunFlow(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt a checkpointed run after 3 MC points...
	ckpt := filepath.Join(t.TempDir(), "flow.ckpt")
	cfg := base
	cfg.Checkpoint = ckpt
	cfg.CheckpointEvery = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mcDone := 0
	cfg.Obs = ObserverFunc(func(e Event) {
		if _, ok := e.(MCPointDone); ok {
			mcDone++
			if mcDone == 3 {
				cancel()
			}
		}
	})
	if _, err := RunFlow(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt run: err = %v", err)
	}

	// ...then resume and demand bit-identical results.
	cfg.Obs = nil
	resumedPts := 0
	freshPts := 0
	cfg.Obs = ObserverFunc(func(e Event) {
		if p, ok := e.(MCPointDone); ok {
			if p.Resumed {
				resumedPts++
			} else {
				freshPts++
			}
		}
	})
	got, err := RunFlow(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resumed {
		t.Error("resumed flow not flagged Resumed")
	}
	if resumedPts != 3 {
		t.Errorf("%d points replayed from checkpoint, want 3", resumedPts)
	}
	if freshPts != len(want.FrontIdx)-3 {
		t.Errorf("%d points re-simulated, want %d", freshPts, len(want.FrontIdx)-3)
	}
	if !reflect.DeepEqual(got.FrontIdx, want.FrontIdx) {
		t.Error("FrontIdx differs after resume")
	}
	if !reflect.DeepEqual(got.Archive, want.Archive) {
		t.Error("archive differs after resume")
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Error("MC points differ after resume (bit-identity violated)")
	}
	if got.Evaluations != want.Evaluations || got.MCSimulations != want.MCSimulations {
		t.Errorf("counters differ: evals %d/%d, mc %d/%d",
			got.Evaluations, want.Evaluations, got.MCSimulations, want.MCSimulations)
	}
	if !reflect.DeepEqual(got.Model.Points, want.Model.Points) {
		t.Error("model tables differ after resume")
	}
	lo, hi := want.Model.Domain()
	for _, x := range []float64{lo, (lo + hi) / 2, hi} {
		a, aerr := want.Model.VariationAt(0, x)
		b, berr := got.Model.VariationAt(0, x)
		if aerr != nil || berr != nil || a != b {
			t.Errorf("VariationAt(%g): %g/%v vs %g/%v", x, a, aerr, b, berr)
		}
	}
	// The finished flow removes its checkpoint.
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
}

func TestRunFlowCheckpointFingerprintMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "flow.ckpt")
	cfg := FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 24, Generations: 12, MCSamples: 30, Seed: 1,
		Checkpoint: ckpt,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Obs = ObserverFunc(func(e Event) {
		if _, ok := e.(MCPointDone); ok {
			cancel()
		}
	})
	if _, err := RunFlow(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt run: err = %v", err)
	}
	cfg.Obs = nil
	cfg.Seed = 2 // different deterministic configuration
	_, err := RunFlow(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "different flow configuration") {
		t.Fatalf("mismatched checkpoint accepted: %v", err)
	}
}

// droppyProblem fails every Monte Carlo sample for designs in the upper
// half of the first gene, so those Pareto points are dropped.
type droppyProblem struct{ synthProblem }

func (p droppyProblem) Evaluate(g []float64, s *process.Sample) ([]float64, error) {
	if s != nil && g[0] > 0.5 {
		return nil, fmt.Errorf("no convergence at g0=%.3f", g[0])
	}
	return p.synthProblem.Evaluate(g, s)
}

func TestRunFlowDroppedPoints(t *testing.T) {
	var dropped []int
	cfg := FlowConfig{
		Problem: droppyProblem{}, Proc: process.C35(),
		PopSize: 24, Generations: 12, MCSamples: 20, Seed: 1,
		MaxDroppedFraction: 1, // tolerate everything
		Obs: ObserverFunc(func(e Event) {
			if d, ok := e.(PointDropped); ok {
				if d.Err == nil {
					t.Error("PointDropped without error")
				}
				dropped = append(dropped, d.Index)
			}
		}),
	}
	res, err := RunFlow(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedPoints == 0 {
		t.Fatal("synthetic drop problem dropped nothing; front never reaches g0>0.5?")
	}
	if len(dropped) != res.DroppedPoints {
		t.Errorf("%d PointDropped events, %d DroppedPoints", len(dropped), res.DroppedPoints)
	}
	if res.DroppedPoints+len(res.Points) != len(res.FrontIdx) {
		t.Errorf("dropped %d + kept %d != front %d",
			res.DroppedPoints, len(res.Points), len(res.FrontIdx))
	}
	if res.Metrics.DroppedPoints != int64(res.DroppedPoints) {
		t.Errorf("metrics dropped %d != result %d", res.Metrics.DroppedPoints, res.DroppedPoints)
	}

	// A tight budget turns the same run into an explicit failure.
	cfg.Obs = nil
	cfg.MaxDroppedFraction = 1e-9
	_, err = RunFlow(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("over-budget drops accepted: %v", err)
	}
}

func TestRunFlowEventStream(t *testing.T) {
	var events []Event
	res, err := RunFlow(context.Background(), FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 10, Generations: 5, MCSamples: 10, Seed: 2,
		Obs: ObserverFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends []Stage
	gens, pts := 0, 0
	for _, e := range events {
		switch ev := e.(type) {
		case StageStart:
			starts = append(starts, ev.Stage)
		case StageEnd:
			ends = append(ends, ev.Stage)
		case GenerationDone:
			gens++
			if ev.TotalEvals != 50 || ev.Evals > ev.TotalEvals {
				t.Errorf("GenerationDone accounting wrong: %+v", ev)
			}
		case MCPointDone:
			pts++
			if ev.Resumed {
				t.Error("fresh run claims resumed points")
			}
			if ev.Total != len(res.FrontIdx) {
				t.Errorf("MCPointDone.Total = %d, want %d", ev.Total, len(res.FrontIdx))
			}
		}
	}
	wantStages := []Stage{StageMOO, StageMC, StageTables}
	if !reflect.DeepEqual(starts, wantStages) || !reflect.DeepEqual(ends, wantStages) {
		t.Errorf("stage sequence: starts %v ends %v", starts, ends)
	}
	if gens != 5 {
		t.Errorf("%d GenerationDone events, want 5", gens)
	}
	if pts != len(res.FrontIdx) {
		t.Errorf("%d MCPointDone events, want %d", pts, len(res.FrontIdx))
	}
	// First event opens the MOO stage, last closes the tables stage.
	if _, ok := events[0].(StageStart); !ok {
		t.Errorf("first event %T, want StageStart", events[0])
	}
	if _, ok := events[len(events)-1].(StageEnd); !ok {
		t.Errorf("last event %T, want StageEnd", events[len(events)-1])
	}
}

func TestRunFlowMultiObserver(t *testing.T) {
	// Several sinks can share one flow's event stream via MultiObserver
	// (a server fans events out to its log, metrics and subscribers).
	gens, typed := 0, 0
	_, err := RunFlow(context.Background(), FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 10, Generations: 5, MCSamples: 10, Seed: 2,
		Obs: MultiObserver(
			ObserverFunc(func(e Event) {
				if _, ok := e.(GenerationDone); ok {
					gens++
				}
			}),
			nil, // nil sinks are skipped, not called
			ObserverFunc(func(Event) { typed++ }),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gens != 5 {
		t.Errorf("first observer saw %d generations, want 5", gens)
	}
	if typed == 0 {
		t.Error("second observer starved")
	}
}

func TestRunFlowMetrics(t *testing.T) {
	reg := &Metrics{}
	res, err := RunFlow(context.Background(), FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 10, Generations: 5, MCSamples: 10, Seed: 2,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Flows != 1 {
		t.Errorf("flows = %d", snap.Flows)
	}
	if snap.Evaluations != 50 {
		t.Errorf("evaluations = %d, want 50", snap.Evaluations)
	}
	if snap.MCSimulations != int64(len(res.FrontIdx)*10) {
		t.Errorf("mc simulations = %d, want %d", snap.MCSimulations, len(res.FrontIdx)*10)
	}
	if snap.CacheHits+snap.CacheMisses != 50 {
		t.Errorf("cache lookups = %d, want 50", snap.CacheHits+snap.CacheMisses)
	}
	if snap.MOOSeconds <= 0 || snap.MCSeconds <= 0 {
		t.Errorf("stage clocks not recorded: %+v", snap)
	}
	if !reflect.DeepEqual(res.Metrics, snap) {
		t.Error("FlowResult.Metrics is not the end-of-run snapshot")
	}
	// Shared registries accumulate across flows.
	if _, err := RunFlow(context.Background(), FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 10, Generations: 5, MCSamples: 10, Seed: 2,
		Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot(); got.Flows != 2 || got.Evaluations != 100 {
		t.Errorf("registry did not accumulate: %+v", got)
	}
}
