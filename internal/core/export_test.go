package core

// SaveTestCheckpoint gob-encodes a one-point flow checkpoint to path,
// as a flow does before it installs its model.
func SaveTestCheckpoint(path string) error {
	return saveCheckpoint(path, &checkpoint{
		Version: checkpointVersion,
		Done:    []mcPointRecord{{Point: ParetoPoint{Params: []float64{1}, Perf: [2]float64{50, 80}}}},
	})
}
