package server

import (
	"fmt"
	"math"
	"testing"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
)

// solveQuery is the reference the server's query path is tested
// against: the request's specs answered by core.Model.DesignForScaled
// and materialised as the wire struct. The server must agree with it bit
// for bit on an answer and word for word on an error.
func solveQuery(tenant, name string, m *core.Model, req api.QueryRequest) api.QueryResult {
	fail := func(err error) api.QueryResult { return api.QueryResult{Error: err.Error()} }
	spec0, err := req.Specs[0].ToYield()
	if err != nil {
		return fail(err)
	}
	spec1, err := req.Specs[1].ToYield()
	if err != nil {
		return fail(err)
	}
	scale := req.GuardScale
	if scale == 0 {
		scale = 1
	}
	d, err := m.DesignForScaled(spec0, spec1, scale)
	if err != nil {
		return fail(err)
	}
	resp := &api.QueryResponse{
		Model:          name,
		Tenant:         wireTenant(tenant),
		Targets:        d.Target,
		DeltaPct:       d.DeltaPct,
		FrontPerf:      d.FrontPerf,
		CurveParam:     d.CurveParam,
		PredictedYield: d.PredictedYield,
		Params:         make([]api.Param, len(d.Params)),
	}
	for i, v := range d.Params {
		p := api.Param{Name: m.ParamNames[i], Value: v}
		if i < len(m.ParamUnits) {
			p.Unit = m.ParamUnits[i]
		}
		resp.Params[i] = p
	}
	return api.QueryResult{Response: resp}
}

// sameAnswer reports the first difference between two answers, every
// float compared by its bits; "" means identical.
func sameAnswer(got, want *api.QueryResponse) string {
	if got.Model != want.Model || got.Tenant != want.Tenant || len(got.Params) != len(want.Params) {
		return fmt.Sprintf("labels %q/%q with %d params, want %q/%q with %d",
			got.Tenant, got.Model, len(got.Params), want.Tenant, want.Model, len(want.Params))
	}
	floats := func(r *api.QueryResponse) []float64 {
		v := []float64{r.Targets[0], r.Targets[1], r.DeltaPct[0], r.DeltaPct[1],
			r.FrontPerf[0], r.FrontPerf[1], r.CurveParam, r.PredictedYield}
		for _, p := range r.Params {
			v = append(v, p.Value)
		}
		return v
	}
	g, w := floats(got), floats(want)
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Sprintf("value %d: %v (%x), want %v (%x)",
				i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
	for i := range got.Params {
		if got.Params[i].Name != want.Params[i].Name || got.Params[i].Unit != want.Params[i].Unit {
			return fmt.Sprintf("param %d label %+v, want %+v", i, got.Params[i], want.Params[i])
		}
	}
	return ""
}

// overflowPoints is a front whose perf1 axis is negative (−2 → −5 as
// perf0 runs 10 → 20) with Δ% = (0, 2): a huge finite guard scale then
// overflows the perf1 target to +Inf for "b <= -3", which the front's
// feasibility test alone would accept.
func overflowPoints() []core.ParetoPoint {
	pts := make([]core.ParetoPoint, 12)
	for i := range pts {
		x := float64(i) / float64(len(pts)-1)
		pts[i] = core.ParetoPoint{
			Params:   []float64{1 + 9*x},
			Perf:     [2]float64{10 + 10*x, -2 - 3*x},
			DeltaPct: [2]float64{0, 2},
		}
	}
	return pts
}

func overflowModel(tb testing.TB) *core.Model {
	tb.Helper()
	m, err := core.BuildModel(overflowPoints(), []string{"a", "b"}, []string{"P1"}, []string{"um"},
		core.ModelOptions{})
	if err != nil {
		tb.Fatalf("BuildModel: %v", err)
	}
	return m
}
