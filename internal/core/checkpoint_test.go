package core

import (
	"bytes"
	"context"
	"errors"
	"io"
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

// memCheckpoint is an in-memory CheckpointStore that counts its calls.
type memCheckpoint struct {
	data          []byte
	saves, clears int
}

func (m *memCheckpoint) Load() ([]byte, error) {
	if m.data == nil {
		return nil, os.ErrNotExist
	}
	return m.data, nil
}

func (m *memCheckpoint) Save(encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	m.data = buf.Bytes()
	m.saves++
	return nil
}

func (m *memCheckpoint) Clear() error {
	m.data = nil
	m.clears++
	return nil
}

// TestCheckpointStoreResume drives RunFlow's checkpointing through a
// caller's CheckpointStore: a cancelled run saves there with no file
// path in its events, a run under another seed is refused with
// ErrCheckpointMismatch before it counts as a flow, and the original
// configuration resumes bit-identically and clears the store.
func TestCheckpointStoreResume(t *testing.T) {
	base := FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 24, Generations: 12, MCSamples: 30, Seed: 1, CheckpointEvery: 2,
	}
	want, err := RunFlow(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	mem := &memCheckpoint{}
	cfg := base
	cfg.CheckpointStore = mem
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mcDone := 0
	cfg.Obs = ObserverFunc(func(e Event) {
		switch ev := e.(type) {
		case CheckpointSaved:
			if ev.Path != "" {
				t.Errorf("store checkpoint reported path %q", ev.Path)
			}
		case MCPointDone:
			if mcDone++; mcDone == 3 {
				cancel()
			}
		}
	})
	if _, err := RunFlow(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt run: err = %v", err)
	}
	if mem.saves < 2 || mem.clears != 0 {
		t.Fatalf("interrupted run: %d saves, %d clears; want ≥ 2 and 0", mem.saves, mem.clears)
	}
	cfg.Obs = nil

	other := cfg
	other.Seed = 2
	other.Metrics = &Metrics{}
	saved := string(mem.data)
	if _, err := RunFlow(context.Background(), other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("other seed: err = %v, want ErrCheckpointMismatch", err)
	}
	if n := other.Metrics.Snapshot().Flows; n != 0 {
		t.Errorf("refused flow counted: flows = %d, want 0", n)
	}
	if string(mem.data) != saved {
		t.Error("refused flow changed the saved checkpoint")
	}

	got, err := RunFlow(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resumed || !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("resume: Resumed %v, points equal %v; want true, true", got.Resumed, reflect.DeepEqual(got.Points, want.Points))
	}
	if mem.clears != 1 || mem.data != nil {
		t.Errorf("completed flow: %d clears, %d bytes left; want 1 and none", mem.clears, len(mem.data))
	}

	// A file caller gets the same typed refusal, naming its file.
	path := filepath.Join(t.TempDir(), "flow.ckpt")
	if err := checkpointFile(path).Save(func(w io.Writer) error {
		_, err := io.WriteString(w, saved)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	other.CheckpointStore, other.Checkpoint = nil, path
	if _, err := RunFlow(context.Background(), other); !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), path) {
		t.Errorf("file caller: err = %v, want ErrCheckpointMismatch naming %s", err, path)
	}
}
