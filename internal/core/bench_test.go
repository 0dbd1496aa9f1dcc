package core

import (
	"context"
	"runtime"
	"testing"

	"analogyield/internal/process"
	"analogyield/internal/yield"
)

// benchFlowConfig is a small but complete flow: WBGA, Pareto
// extraction, per-point Monte Carlo on the batch scheduler, and table
// construction over the synthetic problem.
func benchFlowConfig(workers int) FlowConfig {
	return FlowConfig{
		Problem:     synthProblem{},
		Proc:        process.C35(),
		PopSize:     24,
		Generations: 12,
		MCSamples:   60,
		Seed:        1,
		Workers:     workers,
	}
}

// BenchmarkFlowSerial pins the single-worker flow cost; compare with
// BenchmarkFlowWorkers for the scheduler's speedup on multi-core hosts
// (results are bit-identical between the two — see
// TestRunFlowDeterministicAcrossWorkers).
func BenchmarkFlowSerial(b *testing.B) {
	cfg := benchFlowConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFlow(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowWorkers runs the same flow with GOMAXPROCS workers
// through the point-level MC batch scheduler.
func BenchmarkFlowWorkers(b *testing.B) {
	cfg := benchFlowConfig(runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFlow(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignFor measures the library's Table 3 query (the path
// yieldtool, filterdesign and the examples take) on a 64-point front:
// interpolation, guard band, projection, three parameter tables and the
// predicted yield, with a fresh scratch and result per call. The server
// runs the same engine through DesignInto on pooled scratch
// (server.BenchmarkYieldQuery).
func BenchmarkDesignFor(b *testing.B) {
	pts := make([]ParetoPoint, 64)
	for i := range pts {
		x := float64(i) / float64(len(pts)-1)
		pts[i] = ParetoPoint{
			Params:   []float64{10 + 50*x, 10, 10},
			Perf:     [2]float64{45 + 10*x, 85 - 12*x},
			DeltaPct: [2]float64{1.0 + 0.2*x, 0.5 + 0.1*x},
		}
	}
	m, err := BuildModel(pts, []string{"gain_db", "pm_deg"}, []string{"P1", "P2", "P3"},
		[]string{"um", "um", "um"}, ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec0 := yield.Spec{Name: "gain_db", Bound: 50}
	spec1 := yield.Spec{Name: "pm_deg", Bound: 76}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.DesignFor(spec0, spec1); err != nil {
			b.Fatal(err)
		}
	}
}
