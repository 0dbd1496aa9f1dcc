package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"analogyield/internal/core"
	"analogyield/internal/process"
)

const flowGoldenFile = "testdata/flow_golden.txt"

// flowGoldenRun is one flow the flow golden pins. A run with
// interruptAfter > 0 is first cancelled once that many Monte Carlo
// points have been delivered, and the pinned run is the one that
// resumes from the checkpoint the cancellation wrote.
type flowGoldenRun struct {
	name           string
	problem        core.CircuitProblem
	pop, gen, mc   int
	seed           int64
	workers        int
	interruptAfter int
}

func flowGoldenRuns() []flowGoldenRun {
	return []flowGoldenRun{
		{name: "synth/w1", problem: core.SynthProblem{}, pop: 24, gen: 12, mc: 30, seed: 5, workers: 1},
		{name: "synth/w3", problem: core.SynthProblem{}, pop: 24, gen: 12, mc: 30, seed: 5, workers: 3},
		{name: "ota/w1", problem: core.NewOTAProblem(), pop: 16, gen: 6, mc: 24, seed: 3, workers: 1},
		{name: "ota/w3", problem: core.NewOTAProblem(), pop: 16, gen: 6, mc: 24, seed: 3, workers: 3},
		{name: "ota/resumed", problem: core.NewOTAProblem(), pop: 16, gen: 6, mc: 24, seed: 3, workers: 3, interruptAfter: 3},
	}
}

// flowEventLine renders one event with its wall-clock fields zeroed and
// its checkpoint paths cut to the file name.
func flowEventLine(e core.Event) string {
	switch ev := e.(type) {
	case core.StageEnd:
		ev.Elapsed = 0
		return fmt.Sprintf("%T %+v", ev, ev)
	case core.CheckpointSaved:
		ev.Path = filepath.Base(ev.Path)
		return fmt.Sprintf("%T %+v", ev, ev)
	case core.FlowResumed:
		ev.Path = filepath.Base(ev.Path)
		return fmt.Sprintf("%T %+v", ev, ev)
	}
	return fmt.Sprintf("%T %+v", e, e)
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// flowGoldenLines runs r and returns its golden lines.
func flowGoldenLines(t *testing.T, r flowGoldenRun) []string {
	t.Helper()
	cfg := core.FlowConfig{
		Problem: r.problem, Proc: process.C35(),
		PopSize: r.pop, Generations: r.gen, MCSamples: r.mc, Seed: r.seed, Workers: r.workers,
		Checkpoint:      filepath.Join(t.TempDir(), "flow.ckpt"),
		CheckpointEvery: 4,
	}
	if r.interruptAfter > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := 0
		cut := cfg
		cut.Obs = core.ObserverFunc(func(e core.Event) {
			if _, ok := e.(core.MCPointDone); ok {
				if done++; done == r.interruptAfter {
					cancel()
				}
			}
		})
		if _, err := core.RunFlow(ctx, cut); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run: err = %v, want context.Canceled", r.name, err)
		}
	}
	var events []string
	cfg.Obs = core.ObserverFunc(func(e core.Event) { events = append(events, flowEventLine(e)) })
	cfg.Metrics = &core.Metrics{}
	res, err := core.RunFlow(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	if res.Resumed != (r.interruptAfter > 0) {
		t.Fatalf("%s: Resumed = %v", r.name, res.Resumed)
	}

	var lines []string
	add := func(format string, a ...any) { lines = append(lines, r.name+" "+fmt.Sprintf(format, a...)) }

	h := sha256.New()
	for _, ev := range res.Archive {
		hashFloats(h, ev.ParamGenes...)
		hashFloats(h, ev.Weights...)
		hashFloats(h, ev.Objectives...)
		hashFloats(h, ev.Fitness)
		fmt.Fprintf(h, "%t", ev.OK)
	}
	add("archive %d %x", len(res.Archive), h.Sum(nil))
	add("front %v", res.FrontIdx)
	h = sha256.New()
	for _, p := range res.Points {
		hashFloats(h, p.Perf[:]...)
		hashFloats(h, p.DeltaPct[:]...)
		hashFloats(h, p.Params...)
	}
	add("points %d %x", len(res.Points), h.Sum(nil))
	add("counts evaluations=%d mc_simulations=%d dropped=%d cache_hits=%d cache_misses=%d mc_predicted=%d mc_mean_ess=%v",
		res.Evaluations, res.MCSimulations, res.DroppedPoints, res.CacheHits, res.CacheMisses, res.MCPredicted, res.MCMeanESS)
	s := res.Metrics
	add("metrics flows=%d evaluations=%d mc_simulations=%d solver_failures=%d cache_hits=%d cache_misses=%d cache_hit_rate=%v dropped_points=%d checkpoints=%d",
		s.Flows, s.Evaluations, s.MCSimulations, s.SolverFailures, s.CacheHits, s.CacheMisses, s.CacheHitRate, s.DroppedPoints, s.Checkpoints)
	add("fingerprint %s", core.FlowFingerprint(cfg))
	data, err := core.EncodeModel(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	add("encode %s", sha(data))
	for i, e := range events {
		add("event %03d %s", i, e)
	}
	return lines
}

// TestFlowGolden pins the naive flow end to end: the archive, the
// front, every Monte Carlo point's bits, the counts, the deterministic
// metrics counters, the checkpoint fingerprint, the model payload and
// the event stream (timings stripped) of small synthetic and OTA flows
// at one and three workers, and of an OTA flow resumed from a mid-MC
// checkpoint. The worker layouts and the resumed run must pin the same
// results. Never regenerate it (-update, declared in golden_test.go)
// for a change that is meant to keep the numerics.
func TestFlowGolden(t *testing.T) {
	var lines []string
	for _, r := range flowGoldenRuns() {
		lines = append(lines, flowGoldenLines(t, r)...)
	}

	path := filepath.FromSlash(flowGoldenFile)
	if *updateDesignGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%s has %d lines, the test records %d", flowGoldenFile, len(want), len(lines))
	}
	bad := 0
	for i := 0; i < min(len(want), len(lines)); i++ {
		if lines[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("golden mismatch:\n got  %s\n want %s", lines[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d mismatched lines in all", bad)
	}
}
