// Checkpoint/resume for RunFlow, layered on the same persistence
// directory conventions as persist.go: where Save/Load handle the
// finished model artefacts, the checkpoint file holds the *in-flight*
// state of a run — the completed MOO archive plus every Monte Carlo
// point analysed so far — so a killed run restarts where it left off and
// produces bit-identical results.
//
// The format is a gob stream (gob round-trips float64 exactly, NaN
// objectives of failed evaluations included) guarded by a version number
// and a configuration fingerprint: resuming under a different problem,
// budget or seed is refused rather than silently producing a mixed run.
package core

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"analogyield/internal/wbga"
)

// checkpointVersion guards the gob layout; bump on incompatible change.
const checkpointVersion = 1

// mcPointRecord is the checkpointed outcome of one Pareto point's Monte
// Carlo analysis. FrontPos is the point's position along FrontIdx (the
// per-point MC seed derives from it, so replay is exact). Dropped
// records a point whose MC failed entirely.
type mcPointRecord struct {
	FrontPos int
	Dropped  bool
	DropMsg  string
	Point    ParetoPoint
	MCSims   int
	Failures int
}

// checkpoint is the on-disk resume state of a flow.
type checkpoint struct {
	Version     int
	Fingerprint string

	// MOO stage outcome (always complete in a written checkpoint).
	Archive     []wbga.Evaluation
	FrontIdx    []int
	Evaluations int
	CacheHits   int
	CacheMisses int

	// Done holds the MC outcome of front positions 0..len(Done)-1.
	Done []mcPointRecord
}

// fingerprint identifies everything that determines a flow's results:
// the problem shape and the deterministic budgets/seed. Worker count,
// cache bound, observers and model options are excluded — they do not
// change the archive or the MC statistics.
func (c FlowConfig) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|params=%v|objs=%v|max=%v|pop=%d|gen=%d|mc=%d|seed=%d",
		checkpointVersion,
		c.Problem.ParamNames(), c.Problem.ObjectiveNames(), c.Problem.Maximize(),
		c.PopSize, c.Generations, c.MCSamples, c.Seed)
	// Flows that ran under an importance-sampling or surrogate estimator
	// also hashed "|mcstrategy=<name>", so their checkpoints are refused
	// as written by a different configuration.
	return hex.EncodeToString(h.Sum(nil))
}

// saveCheckpoint writes ck to path atomically (temp file + rename), so a
// crash mid-write never corrupts an existing checkpoint.
func saveCheckpoint(path string, ck *checkpoint) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(ck); err != nil {
		tmp.Close()
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: installing checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint file. A missing file surfaces as
// os.ErrNotExist (via errors.Is); any other failure is a hard error.
func loadCheckpoint(path string) (*checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ck checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d",
			path, ck.Version, checkpointVersion)
	}
	return &ck, nil
}
