package ota

import (
	"testing"

	"analogyield/internal/analysis"
)

// BenchmarkEvaluate times one full objective evaluation (OP + AC sweep +
// measurements) — the unit cost of the paper's 10,000-sample MOO.
func BenchmarkEvaluate(b *testing.B) {
	c := DefaultConfig()
	p := NominalParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOTAOP times the Newton operating point of the nominal OTA
// testbench from a zero start through a reused workspace: the OP half
// of one evaluation, on the paper's 16-device circuit.
func BenchmarkOTAOP(b *testing.B) {
	n := DefaultConfig().Build(NominalParams(), nil)
	ws := analysis.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.OP(n, &analysis.OPOptions{WS: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOTAACSweep times the AC sweep of one evaluation about the
// solved nominal operating point: 100 Hz to 1 GHz at 10 points per
// decade, as EvaluateWS runs it.
func BenchmarkOTAACSweep(b *testing.B) {
	n := DefaultConfig().Build(NominalParams(), nil)
	ws := analysis.NewWorkspace()
	op, err := analysis.OP(n, &analysis.OPOptions{WS: ws})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ACDecadeWith(n, op, sweepStart, sweepStop, 10, ws); err != nil {
			b.Fatal(err)
		}
	}
}
