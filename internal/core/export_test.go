package core

import "io"

// SaveTestCheckpoint gob-encodes a one-point flow checkpoint to path,
// as a flow does before it installs its model.
func SaveTestCheckpoint(path string) error {
	return saveCheckpoint(path, &checkpoint{
		Version: checkpointVersion,
		Done:    []mcPointRecord{{Point: ParetoPoint{Params: []float64{1}, Perf: [2]float64{50, 80}}}},
	})
}

// saveCheckpoint writes ck to the checkpoint file at path, as RunFlow
// does with FlowConfig.Checkpoint set.
func saveCheckpoint(path string, ck *checkpoint) error {
	return checkpointFile(path).Save(func(w io.Writer) error { return encodeCheckpoint(w, ck) })
}

// loadCheckpoint reads the checkpoint file at path. A missing file
// surfaces as os.ErrNotExist (via errors.Is).
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := checkpointFile(path).Load()
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}

// SynthProblem is the package tests' analytic stand-in for the OTA.
type SynthProblem = synthProblem

// FlowFingerprint is the checkpoint fingerprint RunFlow computes for
// cfg once its defaults are resolved.
func FlowFingerprint(cfg FlowConfig) string {
	return cfg.withDefaults().fingerprint()
}
