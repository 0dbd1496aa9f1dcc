package filter

import (
	"testing"

	"analogyield/internal/ota"
	"analogyield/internal/process"
)

// BenchmarkFilterSample times one Monte Carlo sample of the
// transistor-level filter as VerifyYieldMC's workers run it: the
// sample's random stream, BuildTransistor, a SampleOP warm-started from
// the memoised nominal operating point, and the sweep of the grid points
// DefaultSpec reads through a reused workspace.
func BenchmarkFilterSample(b *testing.B) {
	proc := process.C35()
	d := filterDesign{sampleCaps, ota.DefaultConfig(), ota.NominalParams()}
	eval := sampleEvaluator(d, DefaultSpec(), specFreqs(DefaultSpec()))
	if _, err := eval(0, proc.NewSample(1, 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval(0, proc.NewSample(1, i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
