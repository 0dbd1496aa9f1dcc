package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"analogyield/internal/process"
	"analogyield/internal/wbga"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "dir", "flow.ckpt")
	ck := &checkpoint{
		Version:     checkpointVersion,
		Fingerprint: "abc",
		Archive: []wbga.Evaluation{
			{ParamGenes: []float64{0.25, 0.5}, Weights: []float64{0.3, 0.7},
				Objectives: []float64{47.125, 83.0625}, Fitness: 0.5, OK: true},
			// Failed evaluations carry NaN objectives; the format must
			// round-trip them (this is why the file is gob, not JSON).
			{ParamGenes: []float64{1, 0}, Weights: []float64{0.5, 0.5},
				Objectives: []float64{math.NaN(), math.NaN()}, Fitness: -1},
		},
		FrontIdx:    []int{0},
		Evaluations: 2,
		CacheHits:   1,
		Done: []mcPointRecord{
			{FrontPos: 0, Point: ParetoPoint{Params: []float64{35}, Perf: [2]float64{47.125, 83.0625},
				DeltaPct: [2]float64{0.5, 1.25}}, MCSims: 30, Failures: 2},
			{FrontPos: 1, Dropped: true, DropMsg: "every sample failed"},
		},
	}
	if err := saveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Archive[1].Objectives[0]) {
		t.Error("NaN objective lost in round trip")
	}
	// Bit-exact float recovery everywhere else (NaN != NaN defeats
	// DeepEqual on the failed entry, so compare it piecewise).
	if !reflect.DeepEqual(got.Archive[0], ck.Archive[0]) {
		t.Errorf("archive entry changed: %+v", got.Archive[0])
	}
	if !reflect.DeepEqual(got.Done, ck.Done) {
		t.Errorf("MC records changed: %+v", got.Done)
	}
	if got.Fingerprint != "abc" || got.Evaluations != 2 || got.CacheHits != 1 {
		t.Errorf("scalars changed: %+v", got)
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	_, err := loadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: err = %v, want os.ErrNotExist", err)
	}
}

func TestCheckpointVersionGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flow.ckpt")
	if err := saveCheckpoint(path, &checkpoint{Version: checkpointVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
}

func TestCheckpointCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flow.ckpt")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestFingerprintCoversDeterministicInputs(t *testing.T) {
	base := FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 24, Generations: 12, MCSamples: 30, Seed: 1,
	}
	fp := base.fingerprint()
	if base.fingerprint() != fp {
		t.Fatal("fingerprint not stable")
	}
	// Anything that changes the deterministic results changes the print.
	for name, mut := range map[string]func(*FlowConfig){
		"seed":        func(c *FlowConfig) { c.Seed = 2 },
		"pop":         func(c *FlowConfig) { c.PopSize = 25 },
		"generations": func(c *FlowConfig) { c.Generations = 13 },
		"mc samples":  func(c *FlowConfig) { c.MCSamples = 31 },
		"problem":     func(c *FlowConfig) { c.Problem = NewOTAProblem() },
	} {
		c := base
		mut(&c)
		if c.fingerprint() == fp {
			t.Errorf("fingerprint blind to %s change", name)
		}
	}
	// Execution-only knobs must NOT change it: a resume on a different
	// machine shape (worker count) stays valid.
	for name, mut := range map[string]func(*FlowConfig){
		"workers": func(c *FlowConfig) { c.Workers = 7 },
		"model":   func(c *FlowConfig) { c.Model = ModelOptions{MaxTablePoints: 5} },
	} {
		c := base
		mut(&c)
		if c.fingerprint() != fp {
			t.Errorf("fingerprint varies with execution-only knob %s", name)
		}
	}
}

// TestISCheckpointRefusesNaiveResume: testdata/flow_is.ckpt holds the MOO stage and
// one Monte Carlo point of a flow run under importance sampling, whose
// fingerprint covered the strategy. A flow with the same problem,
// budgets and seed must refuse it rather than mix IS and naive points,
// and must leave the file as it was.
func TestISCheckpointRefusesNaiveResume(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "flow_is.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flow.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 8, Generations: 3, MCSamples: 10, Seed: 1, Checkpoint: path,
	}
	_, err = RunFlow(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "different flow configuration") {
		t.Fatalf("IS checkpoint: err = %v, want the different-configuration refusal", err)
	}
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Done) != 1 || ck.Fingerprint == cfg.withDefaults().fingerprint() {
		t.Fatalf("checkpoint changed or not an IS checkpoint: %d points, fingerprint %s", len(ck.Done), ck.Fingerprint)
	}
}
