package wbga

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"analogyield/internal/pareto"
)

// biObjective is a synthetic conflicting two-objective problem over two
// parameters: f1 = x, f2 = 1 − x (perfect conflict along gene 0), with
// gene 1 adding a dent that must be optimised away: both objectives are
// reduced by gene1² so the front lies at gene1 = 0.
type biObjective struct{ failEvery int }

func (biObjective) NumParams() int     { return 2 }
func (biObjective) NumObjectives() int { return 2 }
func (biObjective) Maximize() []bool   { return []bool{true, true} }
func (b biObjective) Evaluate(g []float64) ([]float64, error) {
	if b.failEvery > 0 && int(g[0]*1e6)%b.failEvery == 0 {
		return nil, errors.New("synthetic failure")
	}
	penalty := g[1] * g[1]
	return []float64{g[0] - penalty, (1 - g[0]) - penalty}, nil
}

func TestRunFindsConflictFront(t *testing.T) {
	res, err := Run(context.Background(), biObjective{}, Options{PopSize: 40, Generations: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 1200 {
		t.Errorf("Evaluations = %d, want 1200", res.Evaluations)
	}
	if len(res.Evals) != 1200 {
		t.Errorf("archive = %d", len(res.Evals))
	}
	if len(res.FrontIdx) < 10 {
		t.Fatalf("front has only %d points", len(res.FrontIdx))
	}
	// Front members should have small gene-1 penalty.
	for _, f := range res.Front() {
		if f.ParamGenes[1] > 0.3 {
			t.Errorf("front member with large penalty gene %g", f.ParamGenes[1])
		}
	}
	// The front must span the trade-off: some high-f1 and some high-f2.
	var bestF1, bestF2 float64
	for _, f := range res.Front() {
		if f.Objectives[0] > bestF1 {
			bestF1 = f.Objectives[0]
		}
		if f.Objectives[1] > bestF2 {
			bestF2 = f.Objectives[1]
		}
	}
	if bestF1 < 0.9 || bestF2 < 0.9 {
		t.Errorf("front does not span trade-off: best f1=%g f2=%g", bestF1, bestF2)
	}
}

func TestFrontIsValidPareto(t *testing.T) {
	res, err := Run(context.Background(), biObjective{}, Options{PopSize: 20, Generations: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([][]float64, len(res.Evals))
	for i := range res.Evals {
		objs[i] = res.Evals[i].Objectives
	}
	if err := pareto.Verify(objs, res.FrontIdx, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(context.Background(), biObjective{}, Options{PopSize: 15, Generations: 10, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), biObjective{}, Options{PopSize: 15, Generations: 10, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Evals) != len(b.Evals) {
		t.Fatal("archive sizes differ")
	}
	for i := range a.Evals {
		if a.Evals[i].Fitness != b.Evals[i].Fitness {
			t.Fatalf("eval %d fitness differs across worker counts", i)
		}
	}
}

func TestFailedEvaluationsExcluded(t *testing.T) {
	res, err := Run(context.Background(), biObjective{failEvery: 3}, Options{PopSize: 20, Generations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, e := range res.Evals {
		if !e.OK {
			failures++
			if e.Fitness != -1 {
				t.Error("failed evaluation should have fitness -1")
			}
			if !math.IsNaN(e.Objectives[0]) {
				t.Error("failed evaluation should have NaN objectives")
			}
		}
	}
	if failures == 0 {
		t.Skip("no synthetic failures triggered")
	}
	for _, i := range res.FrontIdx {
		if !res.Evals[i].OK {
			t.Error("failed evaluation on the front")
		}
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := NormalizeWeights([]float64{1, 3})
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Errorf("weights = %v", w)
	}
	// eq 4 invariant: sum to 1.
	sum := w[0] + w[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %g", sum)
	}
	// Zero vector → equal weights.
	w = NormalizeWeights([]float64{0, 0, 0})
	for _, x := range w {
		if math.Abs(x-1.0/3) > 1e-12 {
			t.Errorf("zero-vector weights = %v", w)
		}
	}
	// Negative entries ignored.
	w = NormalizeWeights([]float64{-1, 1})
	if w[0] != 0 || w[1] != 1 {
		t.Errorf("negative weight handling = %v", w)
	}
}

func TestEvaluationStoresNormalizedWeights(t *testing.T) {
	res, err := Run(context.Background(), biObjective{}, Options{PopSize: 10, Generations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Evals {
		sum := 0.0
		for _, w := range e.Weights {
			if w < 0 || w > 1 {
				t.Fatalf("weight %g outside [0,1]", w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %g", sum)
		}
		if len(e.ParamGenes) != 2 || len(e.Weights) != 2 {
			t.Fatal("GA string split wrong")
		}
	}
}

func TestFitnessRange(t *testing.T) {
	// eq 5 with normalised objectives and weights summing to 1 keeps
	// fitness in [0,1] for successful evaluations.
	res, err := Run(context.Background(), biObjective{}, Options{PopSize: 20, Generations: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Evals {
		if !e.OK {
			continue
		}
		if e.Fitness < 0 || e.Fitness > 1 {
			t.Fatalf("fitness %g outside [0,1]", e.Fitness)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Error("nil problem accepted")
	}
	if _, err := Run(context.Background(), sphere{0}, Options{}); err == nil {
		t.Error("problem without parameters accepted")
	}
}

type badProblem struct{ biObjective }

func (badProblem) Maximize() []bool { return []bool{true} } // wrong length

func TestRunRejectsBadMaximize(t *testing.T) {
	if _, err := Run(context.Background(), badProblem{}, Options{}); err == nil {
		t.Error("bad Maximize length accepted")
	}
}

func TestOnGenerationCallback(t *testing.T) {
	var gens []int
	_, err := Run(context.Background(), biObjective{}, Options{PopSize: 10, Generations: 5, Seed: 1,
		OnGeneration: func(gs GenStats) { gens = append(gens, gs.Gen) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 5 {
		t.Errorf("callback saw %d generations, want 5", len(gens))
	}
}

func TestGAStringLayout(t *testing.T) {
	s := GAStringLayout([]string{"W1", "L1"}, []string{"Wg1", "Wg2"})
	if !strings.Contains(s, "W1") || !strings.Contains(s, "Wg2") {
		t.Errorf("layout = %q", s)
	}
	if !strings.Contains(s, "||") {
		t.Error("layout should separate params from weights")
	}
}

// reusableBiObjective counts how many per-worker evaluators are built,
// so tests can assert they persist across generations.
type reusableBiObjective struct {
	biObjective
	evaluators *int // incremented per NewEvaluator call (single-threaded: see evalFn)
}

func (r reusableBiObjective) NewEvaluator() func([]float64) ([]float64, error) {
	*r.evaluators++
	return r.biObjective.Evaluate
}

// TestReusableEvaluatorsPersistAcrossGenerations pins the worker-pool
// contract: NewEvaluator runs once per worker slot for the whole GA run,
// not once per worker per generation — the point of carrying solver
// workspaces in the evaluator closures.
func TestReusableEvaluatorsPersistAcrossGenerations(t *testing.T) {
	built := 0
	prob := reusableBiObjective{evaluators: &built}
	res, err := Run(context.Background(), prob, Options{
		PopSize: 20, Generations: 25, Seed: 3, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 20*25 {
		t.Errorf("Evaluations = %d, want 500", res.Evaluations)
	}
	if built != 4 {
		t.Errorf("NewEvaluator ran %d times over 25 generations, want once per worker (4)", built)
	}
}
