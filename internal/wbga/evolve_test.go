package wbga

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sphere is a single-objective problem peaking at the genome centre;
// with one objective the weight gene normalises to 1 and eq. 5 reduces
// to the range-normalised objective.
type sphere struct{ n int }

func (s sphere) NumParams() int   { return s.n }
func (sphere) NumObjectives() int { return 1 }
func (sphere) Maximize() []bool   { return []bool{true} }
func (sphere) Evaluate(g []float64) ([]float64, error) {
	v := 0.0
	for _, x := range g {
		d := x - 0.5
		v -= d * d
	}
	return []float64{v}, nil
}

func TestRunOptimisesSphere(t *testing.T) {
	res, err := Run(context.Background(), sphere{6}, Options{PopSize: 40, Generations: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Evals[0]
	for _, e := range res.Evals {
		if e.Objectives[0] > best.Objectives[0] {
			best = e
		}
	}
	if best.Objectives[0] < -0.01 {
		t.Errorf("best objective = %g, want > -0.01", best.Objectives[0])
	}
	for _, x := range best.ParamGenes {
		if math.Abs(x-0.5) > 0.15 {
			t.Errorf("best gene %g far from optimum 0.5", x)
		}
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	opts := Options{PopSize: 20, Generations: 15, Seed: 7}
	a, err := Run(context.Background(), biObjective{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), biObjective{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different results")
	}
	opts.Seed = 8
	c, err := Run(context.Background(), biObjective{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Evals, c.Evals) {
		t.Error("different seeds gave identical archives (suspicious)")
	}
}

// TestElitismMonotoneBest checks the elite: every generation after the
// first opens with the previous generation's fittest genome, unchanged,
// so on a single objective the best value per generation never falls.
func TestElitismMonotoneBest(t *testing.T) {
	const pop = 30
	res, err := Run(context.Background(), sphere{5}, Options{PopSize: pop, Generations: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var prev []Evaluation
	for start := 0; start < len(res.Evals); start += pop {
		gen := res.Evals[start : start+pop]
		if prev != nil {
			elite := prev[0]
			for _, e := range prev {
				if e.Fitness > elite.Fitness {
					elite = e
				}
			}
			if !reflect.DeepEqual(gen[0].ParamGenes, elite.ParamGenes) ||
				!reflect.DeepEqual(gen[0].Weights, elite.Weights) {
				t.Fatalf("generation %d does not open with the previous elite", start/pop+1)
			}
			if bestObjective(gen) < bestObjective(prev) {
				t.Errorf("generation %d best %g fell below previous %g",
					start/pop+1, bestObjective(gen), bestObjective(prev))
			}
		}
		prev = gen
	}
}

func bestObjective(gen []Evaluation) float64 {
	b := math.Inf(-1)
	for _, e := range gen {
		b = math.Max(b, e.Objectives[0])
	}
	return b
}

func TestGenomesStayInUnitBox(t *testing.T) {
	res, err := Run(context.Background(), sphere{4}, Options{PopSize: 16, Generations: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Evals {
		for _, g := range e.ParamGenes {
			if g < 0 || g > 1 {
				t.Fatalf("gene %g escaped [0,1]", g)
			}
		}
	}
}

// TestMutationOperatorsProperty: single-point crossover only exchanges
// genes position by position, and mutation never moves a gene out of
// [0,1], even from the edges.
func TestMutationOperatorsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 2+rng.Intn(8))
		b := make([]float64, len(a))
		for i := range a {
			a[i], b[i] = rng.Float64(), rng.Float64()
		}
		a0, b0 := append([]float64(nil), a...), append([]float64(nil), b...)
		crossover(a, b, rng)
		if a[0] != a0[0] || b[0] != b0[0] {
			return false // the cut is never before the first gene
		}
		for i := range a {
			if !(a[i] == a0[i] && b[i] == b0[i]) && !(a[i] == b0[i] && b[i] == a0[i]) {
				return false
			}
		}
		for i := range a {
			a[i] = float64(i % 2) // every gene on an edge
		}
		for k := 0; k < 50; k++ {
			mutate(a, rng)
		}
		for _, g := range a {
			if g < 0 || g > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMutationStatistics: each gene mutates with probability
// 1/len(genome), by a Gaussian step of standard deviation
// mutationSigma.
func TestMutationStatistics(t *testing.T) {
	const genes, rounds = 10, 20000
	rng := rand.New(rand.NewSource(3))
	g := make([]float64, genes)
	moved := 0
	var sum, sumSq float64
	for r := 0; r < rounds; r++ {
		for i := range g {
			g[i] = 0.5 // far enough from the edges that clamping never bites
		}
		mutate(g, rng)
		for _, x := range g {
			if d := x - 0.5; d != 0 {
				moved++
				sum += d
				sumSq += d * d
			}
		}
	}
	if rate := float64(moved) / (genes * rounds); math.Abs(rate-1.0/genes) > 0.005 {
		t.Errorf("mutation rate %g, want %g", rate, 1.0/genes)
	}
	mean := sum / float64(moved)
	sigma := math.Sqrt(sumSq/float64(moved) - mean*mean)
	if math.Abs(mean) > 0.003 || math.Abs(sigma-mutationSigma) > 0.003 {
		t.Errorf("mutation step mean %g sigma %g, want 0 and %g", mean, sigma, mutationSigma)
	}
}

// TestTournamentPrefersFit: a binary tournament between a weak and a
// fit individual picks the fit one unless both draws land on the weak
// one (probability 1/4).
func TestTournamentPrefersFit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fits := []float64{0, 10}
	hits := 0
	for i := 0; i < 4000; i++ {
		hits += tournament(fits, rng)
	}
	if hits < 2850 || hits > 3150 {
		t.Errorf("fit individual selected %d/4000 times, want about 3000", hits)
	}
}

// TestArchiveSize: every generation archives its whole population, also
// when an odd PopSize cuts the last child pair to one.
func TestArchiveSize(t *testing.T) {
	for _, pop := range []int{10, 9} {
		res, err := Run(context.Background(), sphere{3}, Options{PopSize: pop, Generations: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Evals) != 5*pop || res.Evaluations != 5*pop {
			t.Errorf("PopSize %d: archive %d entries, Evaluations %d, want %d (pop x generations)",
				pop, len(res.Evals), res.Evaluations, 5*pop)
		}
	}
}

// TestOptionsValidation: a population of one is refused, two is the
// smallest accepted, and a zero or negative PopSize or Generations takes
// the default of 100.
func TestOptionsValidation(t *testing.T) {
	if _, err := Run(context.Background(), biObjective{}, Options{PopSize: 1}); err == nil {
		t.Error("population of one accepted")
	}
	for _, c := range []struct {
		o    Options
		want int
	}{
		{Options{PopSize: 2, Generations: 1}, 2},
		{Options{}, 100 * 100},
		{Options{PopSize: -3, Generations: -1}, 100 * 100},
	} {
		res, err := Run(context.Background(), sphere{2}, c.o)
		if err != nil {
			t.Fatalf("%+v: %v", c.o, err)
		}
		if res.Evaluations != c.want {
			t.Errorf("%+v: %d evaluations, want %d", c.o, res.Evaluations, c.want)
		}
	}
}

// TestEvolveReportsEveryGeneration: evolve reports each generation once,
// in order, right after scoring it: at report k the archive holds k
// whole populations, and BestFitness is the best of the last of them.
func TestEvolveReportsEveryGeneration(t *testing.T) {
	const pop, gens = 8, 12
	ev := newEvaluator(biObjective{}, 1, nil)
	var seen []int
	n, err := evolve(context.Background(), ev, Options{PopSize: pop, Generations: gens, Seed: 1,
		OnGeneration: func(gs GenStats) {
			seen = append(seen, gs.Gen)
			if len(ev.archive) != gs.Gen*pop {
				t.Errorf("report %d: archive holds %d evaluations, want %d",
					gs.Gen, len(ev.archive), gs.Gen*pop)
				return
			}
			best := math.Inf(-1)
			for _, e := range ev.archive[len(ev.archive)-pop:] {
				best = math.Max(best, e.Fitness)
			}
			if gs.BestFitness != best {
				t.Errorf("report %d: BestFitness %g, generation's best %g", gs.Gen, gs.BestFitness, best)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if n != pop*gens {
		t.Errorf("evolve made %d evaluations, want %d", n, pop*gens)
	}
	if len(seen) != gens {
		t.Fatalf("reports for generations %v, want 1..%d", seen, gens)
	}
	for i, g := range seen {
		if g != i+1 {
			t.Fatalf("reports for generations %v, want 1..%d", seen, gens)
		}
	}
}

// TestEvolveCancelMidRun: a cancel from generation 3's report lets that
// generation stand and stops evolve before generation 4 is scored.
func TestEvolveCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const pop = 10
	ev := newEvaluator(sphere{4}, 1, nil)
	last := 0
	n, err := evolve(ctx, ev, Options{PopSize: pop, Generations: 50, Seed: 1,
		OnGeneration: func(gs GenStats) {
			last = gs.Gen
			if gs.Gen == 3 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 3*pop || len(ev.archive) != 3*pop {
		t.Errorf("after a cancel at generation 3: %d evaluations, archive %d, want %d",
			n, len(ev.archive), 3*pop)
	}
	if last != 3 {
		t.Errorf("last report for generation %d, want 3", last)
	}
}

func TestEvolveCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := newEvaluator(sphere{4}, 1, nil)
	reports := 0
	n, err := evolve(ctx, ev, Options{PopSize: 10, Generations: 20, Seed: 1,
		OnGeneration: func(GenStats) { reports++ }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 || len(ev.archive) != 0 || reports != 0 {
		t.Errorf("pre-cancelled evolve ran: %d evaluations, archive %d, %d reports",
			n, len(ev.archive), reports)
	}
}
