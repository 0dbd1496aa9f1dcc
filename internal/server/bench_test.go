package server

import (
	"context"
	"testing"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
)

// benchPoints mirrors synthModel's analytic front without a *testing.T,
// so benchmarks can build models too.
func benchPoints(n int) []core.ParetoPoint {
	pts := make([]core.ParetoPoint, n)
	for i := range pts {
		x := float64(i) / float64(n-1)
		pts[i] = core.ParetoPoint{
			Params:   []float64{10 + 50*x, 10, 10},
			Perf:     [2]float64{45 + 10*x, 85 - 12*x},
			DeltaPct: [2]float64{1.0 + 0.2*x, 0.5 + 0.1*x},
		}
	}
	return pts
}

func buildBenchModel(pts []core.ParetoPoint) (*core.Model, error) {
	return core.BuildModel(pts,
		[]string{"gain_db", "pm_deg"},
		[]string{"P1", "P2", "P3"},
		[]string{"um", "um", "um"},
		core.ModelOptions{})
}

func benchModel(b *testing.B) *Registry {
	b.Helper()
	r := NewRegistry(nil, 4)
	pts := benchPoints(64)
	m, err := buildBenchModel(pts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Install(api.DefaultTenant, "m1", m); err != nil {
		b.Fatal(err)
	}
	return r
}

func benchQuery() api.QueryRequest {
	return api.QueryRequest{
		TenantRef: api.TenantRef{Model: "m1"},
		Specs: [2]api.Spec{
			{Name: "gain_db", Sense: ">=", Bound: 50},
			{Name: "pm_deg", Sense: ">=", Bound: 76},
		},
	}
}

// BenchmarkYieldQuery measures the serving hot path: core's Table 3
// engine on pooled scratch, pre-rendered JSON. Steady state is 0
// allocs/op.
func BenchmarkYieldQuery(b *testing.B) {
	r := benchModel(b)
	defer r.Close()
	req := benchQuery()
	ctx := context.Background()
	sc := getScratch()
	defer putScratch(sc)
	if _, err := r.QueryRendered(ctx, req, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := r.QueryRendered(ctx, req, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldQueryBatch measures the batch path: 16 queries per op,
// one model resolution and one warm scratch for the whole batch.
func BenchmarkYieldQueryBatch(b *testing.B) {
	r := benchModel(b)
	defer r.Close()
	reqs := make([]api.QueryRequest, 16)
	for i := range reqs {
		reqs[i] = benchQuery()
		// Stay feasible across the spread: the front offers pm ≈ 74.4 at
		// the highest guard-banded gain target here.
		reqs[i].Specs[0].Bound = 46 + float64(i)*0.4
		reqs[i].Specs[1].Bound = 74
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, res := range r.QueryBatch(ctx, reqs) {
			if res.Error != "" {
				b.Fatal(res.Error)
			}
		}
	}
}

// BenchmarkCompileModel measures preparing a model for serving, paid by
// every install, every registry miss and every non-resident version pin.
func BenchmarkCompileModel(b *testing.B) {
	m, err := buildBenchModel(benchPoints(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := CompileModel(api.DefaultTenant, "m1", m); err != nil {
			b.Fatal(err)
		}
	}
}
