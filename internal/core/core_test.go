package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"analogyield/internal/process"
	"analogyield/internal/yield"
)

// synthProblem is a fast analytic stand-in for the OTA: two conflicting
// objectives over three parameters with a small process-dependent
// perturbation, so the whole flow can run in milliseconds.
//
// perf0 ("gain") = 45 + 10·g0 − 5·g1², perf1 ("pm") = 85 − 12·g0 − 5·g1².
// The front lies along g1 = 0 (and any g2), trading perf0 against perf1.
type synthProblem struct{}

func (synthProblem) ParamNames() []string     { return []string{"P1", "P2", "P3"} }
func (synthProblem) ObjectiveNames() []string { return []string{"gain_db", "pm_deg"} }
func (synthProblem) Maximize() []bool         { return []bool{true, true} }
func (synthProblem) ParamUnits() []string     { return []string{"um", "um", "um"} }

func (synthProblem) Evaluate(g []float64, s *process.Sample) ([]float64, error) {
	noise0, noise1 := 0.0, 0.0
	if s != nil {
		sh := s.DeviceShift(process.NMOS, 10e-6, 1e-6)
		noise0 = sh.DVth * 3  // ~±0.15 dB
		noise1 = sh.DBeta * 4 // ~±0.5 deg
	}
	pen := 5 * g[1] * g[1]
	return []float64{45 + 10*g[0] - pen + noise0, 85 - 12*g[0] - pen + noise1}, nil
}

func (synthProblem) Denormalize(g []float64) ([]float64, error) {
	out := make([]float64, len(g))
	for i, x := range g {
		out[i] = 10 + 50*x // µm-like
	}
	return out, nil
}

func smallFlow(t *testing.T) *FlowResult {
	t.Helper()
	res, err := RunFlow(context.Background(), FlowConfig{
		Problem:     synthProblem{},
		Proc:        process.C35(),
		PopSize:     24,
		Generations: 12,
		MCSamples:   30,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunFlowEndToEnd(t *testing.T) {
	res := smallFlow(t)
	if res.Evaluations != 24*12 {
		t.Errorf("Evaluations = %d, want 288", res.Evaluations)
	}
	if len(res.FrontIdx) < 5 {
		t.Fatalf("front has %d points", len(res.FrontIdx))
	}
	if len(res.Points) == 0 || res.Model == nil {
		t.Fatal("flow produced no model")
	}
	if res.MCSimulations != len(res.Points)*30 {
		t.Errorf("MCSimulations = %d, want %d", res.MCSimulations, len(res.Points)*30)
	}
	// Points sorted by perf0 ascending (BuildModel sorts its copy; the
	// flow's Points preserve MC order, so just check the model).
	pts := res.Model.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Perf[0] <= pts[i-1].Perf[0] {
			t.Fatal("model points not strictly sorted by perf0")
		}
	}
	// The trade-off must be visible: perf1 falls as perf0 rises.
	if pts[0].Perf[1] <= pts[len(pts)-1].Perf[1] {
		t.Error("front does not show the conflict")
	}
	// Variation deltas positive and small.
	for _, p := range pts {
		if p.DeltaPct[0] <= 0 || p.DeltaPct[0] > 10 {
			t.Errorf("DeltaPct[0] = %g implausible", p.DeltaPct[0])
		}
	}
	if res.Timing.MOO <= 0 || res.Timing.MC <= 0 {
		t.Error("timings not recorded")
	}
}

func TestRunFlowValidation(t *testing.T) {
	if _, err := RunFlow(context.Background(), FlowConfig{Proc: process.C35()}); err == nil {
		t.Error("nil problem accepted")
	}
	if _, err := RunFlow(context.Background(), FlowConfig{Problem: synthProblem{}}); err == nil {
		t.Error("nil process accepted")
	}
}

func TestRunFlowProgressEvents(t *testing.T) {
	stages := map[Stage]int{}
	_, err := RunFlow(context.Background(), FlowConfig{
		Problem: synthProblem{}, Proc: process.C35(),
		PopSize: 10, Generations: 5, MCSamples: 10, Seed: 2,
		Obs: ObserverFunc(func(e Event) {
			switch ev := e.(type) {
			case GenerationDone:
				stages[StageMOO]++
				if ev.Evals > ev.TotalEvals {
					t.Errorf("moo: done %d > total %d", ev.Evals, ev.TotalEvals)
				}
			case MCPointDone:
				stages[StageMC]++
				if ev.Index+1 > ev.Total {
					t.Errorf("mc: done %d > total %d", ev.Index+1, ev.Total)
				}
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stages[StageMOO] == 0 || stages[StageMC] == 0 {
		t.Errorf("progress stages seen: %v", stages)
	}
}

func TestModelDesignFor(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	lo, hi := m.Domain()
	// Pick a spec comfortably inside the modelled range.
	bound := lo + 0.4*(hi-lo)
	pmAtBound, err := m.PerfFront.Eval(bound)
	if err != nil {
		t.Fatal(err)
	}
	spec0 := yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: bound}
	spec1 := yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: pmAtBound - 3}
	d, err := m.DesignFor(spec0, spec1)
	if err != nil {
		t.Fatal(err)
	}
	// Guard-banded targets exceed the bounds (Table 3 logic).
	if d.Target[0] <= spec0.Bound {
		t.Errorf("target %g not above bound %g", d.Target[0], spec0.Bound)
	}
	if d.Target[1] <= spec1.Bound {
		t.Errorf("pm target %g not above bound %g", d.Target[1], spec1.Bound)
	}
	// Deltas positive.
	if d.DeltaPct[0] <= 0 || d.DeltaPct[1] <= 0 {
		t.Error("interpolated deltas should be positive")
	}
	// Parameters inside the physical range of the synthetic problem.
	for _, p := range d.Params {
		if p < 10-1 || p > 60+1 {
			t.Errorf("interpolated parameter %g outside [10, 60]", p)
		}
	}
	// The selected front point must meet both guard-banded targets.
	if d.FrontPerf[0] < d.Target[0]-1e-6 {
		t.Errorf("front perf0 %g below target %g", d.FrontPerf[0], d.Target[0])
	}
	if d.FrontPerf[1] < d.Target[1]-1e-6 {
		t.Errorf("front perf1 %g below target %g", d.FrontPerf[1], d.Target[1])
	}
}

func TestModelDesignForInfeasible(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	lo, hi := m.Domain()
	bound := lo + 0.8*(hi-lo)
	pmAtBound, _ := m.PerfFront.Eval(bound)
	// Demand more PM than the front offers at this gain: infeasible.
	_, err := m.DesignFor(
		yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: bound},
		yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: pmAtBound + 5})
	if err == nil {
		t.Fatal("infeasible spec pair accepted")
	}
	if !strings.Contains(err.Error(), "not simultaneously achievable") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestModelDesignForOutOfRange(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	_, hi := m.Domain()
	_, err := m.DesignFor(
		yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: hi + 100},
		yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: 0})
	if err == nil {
		t.Fatal("out-of-range spec accepted (no-extrapolation rule violated)")
	}
}

func TestModelVariationAt(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	lo, hi := m.Domain()
	v, err := m.VariationAt(0, (lo+hi)/2)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("variation = %g", v)
	}
	if _, err := m.VariationAt(5, lo); err == nil {
		t.Error("bad index accepted")
	}
}

func TestBuildModelValidation(t *testing.T) {
	mkPoint := func(p0, p1 float64) ParetoPoint {
		return ParetoPoint{Params: []float64{1}, Perf: [2]float64{p0, p1},
			DeltaPct: [2]float64{0.5, 1.5}}
	}
	names := []string{"gain_db", "pm_deg"}
	pn := []string{"P1"}
	pu := []string{"um"}
	if _, err := BuildModel([]ParetoPoint{mkPoint(1, 2)}, names, pn, pu, ModelOptions{}); err == nil {
		t.Error("too few points accepted")
	}
	pts := []ParetoPoint{mkPoint(1, 9), mkPoint(2, 8), mkPoint(3, 7), mkPoint(4, 6), mkPoint(5, 5)}
	if _, err := BuildModel(pts, []string{"a"}, pn, pu, ModelOptions{}); err == nil {
		t.Error("single objective accepted")
	}
	if _, err := BuildModel(pts, names, []string{"a", "b"}, pu, ModelOptions{}); err == nil {
		t.Error("param name mismatch accepted")
	}
	m, err := BuildModel(pts, names, pn, pu, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Delta[0].Len() != 5 {
		t.Errorf("table has %d knots", m.Delta[0].Len())
	}
}

func TestBuildModelThinning(t *testing.T) {
	var pts []ParetoPoint
	for i := 0; i < 500; i++ {
		pts = append(pts, ParetoPoint{
			Params:   []float64{float64(i)},
			Perf:     [2]float64{float64(i), 1000 - float64(i)},
			DeltaPct: [2]float64{0.5, 1.5},
		})
	}
	m, err := BuildModel(pts, []string{"gain_db", "pm_deg"}, []string{"P1"}, []string{"um"},
		ModelOptions{MaxTablePoints: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) > 100 {
		t.Errorf("thinning kept %d points", len(m.Points))
	}
	// Endpoints preserved.
	if m.Points[0].Perf[0] != 0 || m.Points[len(m.Points)-1].Perf[0] != 499 {
		t.Error("thinning lost the endpoints")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	res := smallFlow(t)
	dir := t.TempDir()
	if err := res.Model.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Paper-style artefacts exist.
	for _, f := range []string{"front.tbl", "gain_delta.tbl", "pm_delta.tbl", "lp1_data.tbl", "lp3_data.tbl"} {
		if _, err := filepath.Glob(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Points) != len(res.Model.Points) {
		t.Fatalf("loaded %d points, want %d", len(loaded.Points), len(res.Model.Points))
	}
	if loaded.ObjectiveNames[0] != "gain_db" || loaded.ParamNames[0] != "P1" {
		t.Errorf("names lost: %v %v", loaded.ObjectiveNames, loaded.ParamNames)
	}
	if loaded.ParamUnits[0] != "um" {
		t.Errorf("units lost: %v", loaded.ParamUnits)
	}
	// Same interpolation behaviour.
	lo, hi := res.Model.Domain()
	mid := (lo + hi) / 2
	a, err := res.Model.VariationAt(0, mid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.VariationAt(0, mid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("variation differs after reload: %g vs %g", a, b)
	}
}

func TestLoadModelMissing(t *testing.T) {
	if _, err := LoadModel(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestOTAProblemAdapter(t *testing.T) {
	p := NewOTAProblem()
	if len(p.ParamNames()) != 8 || len(p.ObjectiveNames()) != 2 {
		t.Fatal("OTA problem shape wrong")
	}
	genes := make([]float64, 8)
	for i := range genes {
		genes[i] = 0.5
	}
	objs, err := p.Evaluate(genes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if objs[0] < 30 || objs[0] > 65 {
		t.Errorf("OTA gain %g out of range", objs[0])
	}
	phys, err := p.Denormalize(genes)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-space width = 35 µm (stored in µm).
	if math.Abs(phys[0]-35) > 1e-9 {
		t.Errorf("denormalized W1 = %g µm, want 35", phys[0])
	}
	params, err := p.ParamsFromTableValues(phys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(params.W1-35e-6) > 1e-12 {
		t.Errorf("round-trip W1 = %g m", params.W1)
	}
	if _, err := p.ParamsFromTableValues([]float64{1}); err == nil {
		t.Error("short value vector accepted")
	}
}

func TestRunFlowOTAIntegration(t *testing.T) {
	// End-to-end on the real circuit at a minimal budget: the flow must
	// produce a usable model whose spec queries return parameters inside
	// Table 1's box.
	if testing.Short() {
		t.Skip("OTA integration flow in -short mode")
	}
	res, err := RunFlow(context.Background(), FlowConfig{
		Problem:     NewOTAProblem(),
		Proc:        process.C35(),
		PopSize:     16,
		Generations: 8,
		MCSamples:   12,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 128 {
		t.Errorf("evaluations = %d", res.Evaluations)
	}
	m := res.Model
	lo, hi := m.Domain()
	if hi-lo < 1 {
		t.Fatalf("front gain span %.2f dB too narrow", hi-lo)
	}
	bound := lo + 0.5*(hi-lo)
	pmAt, err := m.PerfFront.Eval(bound)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.DesignFor(
		yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: bound},
		yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: pmAt - 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Params {
		if v < 10-1e-9 || v > 60+1e-9 {
			// widths and lengths share the table µm units; lengths lie
			// in [0.35, 4].
			if v < 0.35-1e-9 || v > 4+1e-9 {
				t.Errorf("parameter %d = %g µm outside Table 1 box", i, v)
			}
		}
	}
	// The interpolated design must simulate close to the model's claim.
	prob := NewOTAProblem()
	genes, err := prob.GenesForDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := prob.Evaluate(genes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(objs[0]-d.Target[0]) > 1.5 {
		t.Errorf("simulated gain %.2f far from model target %.2f", objs[0], d.Target[0])
	}
}

// TestByLessSortsLikeSortSlice: BuildModel and dedupeBy sort with
// slices.SortFunc and byLess where they used sort.Slice with <. Over
// keys with heavy ties and NaNs, at sizes that reach insertion sort,
// the median-of-three and ninther pivots and the pattern breaker, both
// sorts must leave every element in the same place.
func TestByLessSortsLikeSortSlice(t *testing.T) {
	type item struct {
		key float64
		id  int
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 12, 13, 49, 50, 51, 200, 1000, 5000} {
		for trial := 0; trial < 20; trial++ {
			a := make([]item, n)
			for i := range a {
				switch k := rng.Intn(10); {
				case k == 0:
					a[i].key = math.NaN()
				case k < 4:
					a[i].key = float64(rng.Intn(4)) // ties
				default:
					a[i].key = rng.NormFloat64()
				}
				a[i].id = i
			}
			if trial%4 == 1 {
				slices.SortFunc(a, func(x, y item) int { return byLess(x.key, y.key) })
				slices.Reverse(a[:n/2])
			}
			b := slices.Clone(a)
			sort.Slice(a, func(i, j int) bool { return a[i].key < a[j].key })
			slices.SortFunc(b, func(x, y item) int { return byLess(x.key, y.key) })
			for i := range a {
				if a[i].id != b[i].id {
					t.Fatalf("n=%d trial %d: position %d holds element %d after sort.Slice, %d after slices.SortFunc",
						n, trial, i, a[i].id, b[i].id)
				}
			}
		}
	}
}
