// Checkpoint/resume for RunFlow, layered on the same persistence
// directory conventions as persist.go: where Save/Load handle the
// finished model artefacts, the checkpoint holds the *in-flight* state
// of a run — the completed MOO archive plus every Monte Carlo point
// analysed so far — so a killed run restarts where it left off and
// produces bit-identical results.
//
// The format is a gob stream (gob round-trips float64 exactly, NaN
// objectives of failed evaluations included) guarded by a version number
// and a configuration fingerprint: resuming under a different problem,
// budget or seed is refused rather than silently producing a mixed run.
// Where the bytes live is the caller's choice: a file
// (FlowConfig.Checkpoint) or any CheckpointStore.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"analogyield/internal/wbga"
)

// checkpointVersion guards the gob layout; bump on incompatible change.
const checkpointVersion = 1

// CheckpointStore keeps a flow's resume state between runs. RunFlow
// loads it once at the start, saves it after the MOO stage, every
// CheckpointEvery Monte Carlo points and on cancellation, and clears it
// when the flow completes. Calls come from the flow goroutine, one at a
// time.
type CheckpointStore interface {
	// Load returns the last saved state. When none is saved it returns
	// an error wrapping fs.ErrNotExist.
	Load() ([]byte, error)
	// Save replaces the saved state with the bytes encode writes; it
	// calls encode once. A failed Save must leave the previous state
	// intact.
	Save(encode func(io.Writer) error) error
	// Clear discards the saved state.
	Clear() error
}

// ErrCheckpointMismatch refuses a saved checkpoint written by a flow
// with another problem shape, budget or seed: resuming from it would
// mix two runs.
var ErrCheckpointMismatch = errors.New("core: checkpoint was written by a different flow configuration")

// checkpointFile is the CheckpointStore behind FlowConfig.Checkpoint:
// one file, replaced by temp file + rename, so a crash mid-write never
// corrupts an existing checkpoint. The encoding streams straight into
// the temp file.
type checkpointFile string

// Load implements CheckpointStore.
func (p checkpointFile) Load() ([]byte, error) { return os.ReadFile(string(p)) }

// Save implements CheckpointStore.
func (p checkpointFile) Save(encode func(io.Writer) error) error {
	dir := filepath.Dir(string(p))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), string(p)); err != nil {
		return fmt.Errorf("core: installing checkpoint: %w", err)
	}
	return nil
}

// Clear implements CheckpointStore.
func (p checkpointFile) Clear() error {
	if err := os.Remove(string(p)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: removing finished checkpoint: %w", err)
	}
	return nil
}

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

// checkpoint is the saved resume state of a flow.
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

// encodeCheckpoint writes ck to w as one gob stream.
func encodeCheckpoint(w io.Writer, ck *checkpoint) error {
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return nil
}

// decodeCheckpoint parses a saved checkpoint, refusing other layout
// versions.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint has version %d, want %d", ck.Version, checkpointVersion)
	}
	return &ck, nil
}
