package ota

import (
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/process"
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

// BenchmarkEvaluateSample times one Monte Carlo evaluation as the flow's
// workers run it: a sampled EvaluateWS through a reused workspace, which
// starts Newton from the design's memoised nominal operating point and
// stops the sweep at the last measured crossing.
func BenchmarkEvaluateSample(b *testing.B) {
	c := DefaultConfig()
	p := NominalParams()
	proc := process.C35()
	ws := analysis.NewWorkspace()
	if _, err := c.EvaluateWS(p, proc.NewSample(1, 0), ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvaluateWS(p, proc.NewSample(1, i%200), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOTAOPWarm times the operating point of a sampled OTA
// testbench started from its design's memoised nominal operating point
// (analysis.SampleOP), and reports the mean Newton iterations per solve.
func BenchmarkOTAOPWarm(b *testing.B) {
	c := DefaultConfig()
	p := NominalParams()
	proc := process.C35()
	nets := make([]*circuit.Netlist, 200)
	for i := range nets {
		nets[i] = c.Build(p, proc.NewSample(1, i))
	}
	nominal := func() *circuit.Netlist { return c.Build(p, nil) }
	ws := analysis.NewWorkspace()
	if _, err := analysis.SampleOP(nets[0], p, nominal, ws); err != nil {
		b.Fatal(err)
	}
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := analysis.SampleOP(nets[i%len(nets)], p, nominal, ws)
		if err != nil {
			b.Fatal(err)
		}
		iters += op.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
