package core

import (
	"context"
	"testing"

	"analogyield/internal/process"
	"analogyield/internal/yield"
)

func TestCornerAnalysisSynth(t *testing.T) {
	prob := synthProblem{}
	proc := process.C35()
	genes := []float64{0.5, 0, 0.5}
	results := CornerAnalysis(prob, proc, genes, 3)
	if len(results) != 5 {
		t.Fatalf("got %d corner results", len(results))
	}
	byName := map[string][]float64{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("corner %s: %v", r.Corner, r.Err)
		}
		byName[r.Corner.String()] = r.Objectives
	}
	// The synthetic problem adds DVth*3 to objective 0: SS (positive
	// DVth) must raise it, FF must lower it, TT must match nominal.
	nom, err := prob.Evaluate(genes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if byName["TT"][0] != nom[0] {
		t.Errorf("TT corner (%g) should equal nominal (%g)", byName["TT"][0], nom[0])
	}
	if !(byName["SS"][0] > nom[0] && byName["FF"][0] < nom[0]) {
		t.Errorf("corner ordering wrong: SS %g, nominal %g, FF %g",
			byName["SS"][0], nom[0], byName["FF"][0])
	}
}

func TestCornerAnalysisOTA(t *testing.T) {
	prob := NewOTAProblem()
	proc := process.C35()
	genes := make([]float64, 8)
	for i := range genes {
		genes[i] = 0.5
	}
	results := CornerAnalysis(prob, proc, genes, 3)
	gains := map[string]float64{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("corner %s failed: %v", r.Corner, r.Err)
		}
		gains[r.Corner.String()] = r.Objectives[0]
	}
	// All corners must produce a working amplifier within a few dB of
	// typical (the symmetrical OTA's gain is ratio-based).
	tt := gains["TT"]
	for name, g := range gains {
		if g < tt-6 || g > tt+6 {
			t.Errorf("corner %s gain %g far from TT %g", name, g, tt)
		}
	}
}

func TestVerifyDesignYield(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	lo, hi := m.Domain()
	bound := lo + 0.4*(hi-lo)
	pmAt, err := m.PerfFront.Eval(bound)
	if err != nil {
		t.Fatal(err)
	}
	spec0 := yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: bound}
	spec1 := yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: pmAt - 3}
	d, err := m.DesignFor(spec0, spec1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-simulate the design: genes from the interpolated parameters.
	genes := make([]float64, 3)
	for i, v := range d.Params {
		genes[i] = (v - 10) / 50 // inverse of synthProblem.Denormalize
	}
	ver, err := VerifyDesignYield(context.Background(), synthProblem{}, process.C35(), genes, spec0, spec1, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Samples != 200 || len(ver.Stats) != 2 {
		t.Fatalf("verification bookkeeping wrong: %+v", ver)
	}
	// The guard-banded design must yield well above the raw spec-edge
	// yield (~50% for a design sitting exactly at the bound).
	if ver.Yield < 0.9 {
		t.Errorf("yield = %g, want >= 0.9 for a guard-banded design", ver.Yield)
	}
}

func TestVerifyDesignYieldValidation(t *testing.T) {
	if _, err := VerifyDesignYield(context.Background(), synthProblem{}, process.C35(), []float64{0, 0, 0},
		yield.Spec{}, yield.Spec{}, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestGenesForDesignRoundTrip(t *testing.T) {
	p := NewOTAProblem()
	d := &Design{Params: []float64{35, 2, 35, 2, 35, 2, 35, 2}} // µm values
	genes, err := p.GenesForDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(genes) != 8 {
		t.Fatalf("genes = %d", len(genes))
	}
	// 35 µm is mid-width: gene 0.5; 2 µm on [0.35, 4] ≈ 0.452.
	if genes[0] < 0.49 || genes[0] > 0.51 {
		t.Errorf("W gene = %g, want ~0.5", genes[0])
	}
	if _, err := p.GenesForDesign(&Design{Params: []float64{1}}); err == nil {
		t.Error("short design accepted")
	}
}

// GenesFromParams implements GeneInverter for the synthetic problem
// (inverse of its Denormalize: v = 10 + 50·g).
func (synthProblem) GenesFromParams(vals []float64) ([]float64, error) {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = (v - 10) / 50
	}
	return out, nil
}

func TestDesignForYieldTarget(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	lo, hi := m.Domain()
	bound := lo + 0.3*(hi-lo)
	pmAt, err := m.PerfFront.Eval(bound)
	if err != nil {
		t.Fatal(err)
	}
	spec0 := yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: bound}
	spec1 := yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: pmAt - 4}
	out, err := DesignForYieldTarget(context.Background(), m, synthProblem{}, process.C35(),
		spec0, spec1, 0.95, 120, 17)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verification.Yield < 0.95 {
		t.Errorf("verified yield %g below target", out.Verification.Yield)
	}
	if out.Scale < 1 {
		t.Errorf("scale %g below 1", out.Scale)
	}
	if out.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestDesignForYieldTargetValidation(t *testing.T) {
	res := smallFlow(t)
	m := res.Model
	if _, err := DesignForYieldTarget(context.Background(), m, synthProblem{}, process.C35(),
		yield.Spec{}, yield.Spec{}, 1.5, 10, 1); err == nil {
		t.Error("target > 1 accepted")
	}
	// A problem without the inverse interface.
	if _, err := DesignForYieldTarget(context.Background(), m, bareProblem{}, process.C35(),
		yield.Spec{}, yield.Spec{}, 0.9, 10, 1); err == nil {
		t.Error("non-invertible problem accepted")
	}
}

// bareProblem is a CircuitProblem without GenesFromParams.
type bareProblem struct{ synthProblem }

func (bareProblem) ParamNames() []string { return []string{"P1", "P2", "P3"} }

func TestDesignForScaledValidation(t *testing.T) {
	res := smallFlow(t)
	if _, err := res.Model.DesignForScaled(yield.Spec{}, yield.Spec{}, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

// TestDesignForScaledNonFiniteTarget: a finite scale whose product with
// Δ% overflows must not turn into an infinite target that the
// feasibility test then accepts.
func TestDesignForScaledNonFiniteTarget(t *testing.T) {
	var pts []ParetoPoint
	for i := 0; i < 12; i++ {
		x := float64(i) / 11
		pts = append(pts, ParetoPoint{
			Params:   []float64{1 + x},
			Perf:     [2]float64{10 + 10*x, -2 - 3*x},
			DeltaPct: [2]float64{0, 2},
		})
	}
	m, err := BuildModel(pts, []string{"a", "b"}, []string{"P1"}, []string{"um"}, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := yield.Spec{Name: "a", Sense: yield.AtMost, Bound: 15}
	b := yield.Spec{Name: "b", Sense: yield.AtMost, Bound: -3}
	if _, err := m.DesignForScaled(a, b, 1); err != nil {
		t.Fatalf("scale 1: %v", err)
	}
	_, err = m.DesignForScaled(a, b, 1e308)
	want := "core: guard-banded b target +Inf is not finite (guard-band scale 1e+308)"
	if err == nil || err.Error() != want {
		t.Fatalf("scale 1e308: err = %v, want %q", err, want)
	}
}
