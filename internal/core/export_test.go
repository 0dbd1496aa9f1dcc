package core

// SaveTestCheckpoint gob-encodes a one-point flow checkpoint to path,
// as a flow does before it installs its model.
func SaveTestCheckpoint(path string) error {
	return saveCheckpoint(path, &checkpoint{
		Version: checkpointVersion,
		Done:    []mcPointRecord{{Point: ParetoPoint{Params: []float64{1}, Perf: [2]float64{50, 80}}}},
	})
}

// SynthProblem is the package tests' analytic stand-in for the OTA.
type SynthProblem = synthProblem

// FlowFingerprint is the checkpoint fingerprint RunFlow computes for
// cfg once its defaults are resolved.
func FlowFingerprint(cfg FlowConfig) string {
	return cfg.withDefaults().fingerprint()
}
