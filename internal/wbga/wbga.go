// Package wbga implements the paper's weight-based genetic algorithm
// (WBGA, after Hajela & Lin): the GA string carries both the designable
// parameters and the objective-function weights (Fig 4/6), the weights
// are normalised to sum to one (eq. 4), and each individual's fitness is
// the normalised weighted sum of its objectives (eq. 5). Evolving the
// weights alongside the parameters spreads the population across the
// trade-off curve, so the archive of all evaluations contains a dense
// sampling of the Pareto front — which internal/pareto then extracts.
//
// The GA under it is the one the WBGA runs, with its operators fixed:
// binary tournament selection, single-point crossover, Gaussian
// mutation and one elite carried unchanged, over genes kept in [0,1].
package wbga

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"analogyield/internal/pareto"
)

// Problem is a multi-objective optimisation problem over [0,1]-normalised
// parameter genes.
type Problem interface {
	// NumParams is the number of designable-parameter genes.
	NumParams() int
	// NumObjectives is the number of performance functions.
	NumObjectives() int
	// Maximize gives the sense of each objective.
	Maximize() []bool
	// Evaluate computes the raw objective values for one parameter-gene
	// vector (length NumParams). It must be safe for concurrent use.
	Evaluate(paramGenes []float64) ([]float64, error)
}

// ReusableProblem is an optional Problem extension for problems whose
// evaluation benefits from per-goroutine scratch state (e.g. reusable
// circuit-solver workspaces). Each worker goroutine of a run calls
// NewEvaluator once and evaluates exclusively through the returned
// function, which therefore does not need to be safe for concurrent use.
type ReusableProblem interface {
	Problem
	NewEvaluator() func(paramGenes []float64) ([]float64, error)
}

// Options configures a WBGA run. The paper's OTA example uses
// PopSize=100, Generations=100 (10,000 evaluations).
type Options struct {
	PopSize     int // default 100; 1 is rejected
	Generations int // default 100
	Seed        int64
	Workers     int // parallel objective evaluations (default GOMAXPROCS)
	// OnGeneration, when non-nil, observes progress after each
	// generation is evaluated.
	OnGeneration func(GenStats)
}

// GenStats is the per-generation progress report delivered to
// Options.OnGeneration: the 1-based generation number, the cumulative
// evaluation count, the best eq. 5 fitness of the generation just
// scored, and the cumulative genome-cache counters.
type GenStats struct {
	Gen         int
	Evals       int
	BestFitness float64
	CacheHits   int
	CacheMisses int
}

// DefaultCacheSize bounds the genome evaluation cache every run uses:
// converging populations re-emit duplicate parameter genomes (elites,
// crossover without mutation), and cached genomes skip the circuit
// simulation entirely. The bound sits comfortably above the paper's
// 10,000-evaluation budget once duplicates are folded.
const DefaultCacheSize = 8192

// The GA's operator constants: a selected pair recombines with
// probability crossoverRate, and a mutated gene moves by a Gaussian
// step of standard deviation mutationSigma in normalised units.
const (
	crossoverRate = 0.9
	mutationSigma = 0.08
)

// Evaluation is one archived individual: its parameter genes, its
// normalised weight vector, the raw objective values and the scalar
// fitness assigned by eq. 5. Failed circuit evaluations carry NaN
// objectives and -1 fitness and are excluded from the front.
type Evaluation struct {
	ParamGenes []float64
	Weights    []float64
	Objectives []float64
	Fitness    float64
	OK         bool
}

// Result is the outcome of a WBGA run.
type Result struct {
	// Evals archives every evaluated individual in evaluation order —
	// the "number of optimal and non-optimal solutions" the paper's
	// Pareto step consumes.
	Evals []Evaluation
	// FrontIdx indexes the Pareto-optimal members of Evals.
	FrontIdx []int
	// Evaluations counts objective evaluations (PopSize × Generations).
	Evaluations int
	// CacheHits and CacheMisses count genome-cache lookups: every hit is
	// one circuit simulation skipped.
	CacheHits, CacheMisses int
}

// Front returns the Pareto-optimal evaluations.
func (r *Result) Front() []Evaluation {
	out := make([]Evaluation, len(r.FrontIdx))
	for i, idx := range r.FrontIdx {
		out[i] = r.Evals[idx]
	}
	return out
}

// NormalizeWeights applies the paper's eq. 4: w_i ← w_i / Σ w_j. A zero
// (or degenerate) raw vector normalises to equal weights.
func NormalizeWeights(raw []float64) []float64 {
	out := make([]float64, len(raw))
	sum := 0.0
	for _, w := range raw {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, w := range raw {
		if w > 0 {
			out[i] = w / sum
		}
	}
	return out
}

// evaluator scores the GA's generations against a Problem, maintaining
// the archive, the genome cache and the running objective ranges used
// by the eq. 5 normalisation.
type evaluator struct {
	prob    Problem
	workers int
	cache   *genomeCache // nil disables caching

	mu      sync.Mutex
	archive []Evaluation
	// Running min/max per objective over all successful evaluations.
	min, max []float64

	// evalFns holds one long-lived evaluation function per worker slot,
	// reused across generations so workspace-owning evaluators keep
	// their solver buffers hot for the whole run instead of
	// reallocating them at every generation boundary.
	evalFns []func([]float64) ([]float64, error)
}

func newEvaluator(p Problem, workers int, cache *genomeCache) *evaluator {
	m := p.NumObjectives()
	e := &evaluator{prob: p, workers: workers, cache: cache,
		min: make([]float64, m), max: make([]float64, m)}
	for k := 0; k < m; k++ {
		e.min[k] = math.Inf(1)
		e.max[k] = math.Inf(-1)
	}
	return e
}

// evalFunc returns the evaluation function one worker goroutine owns for
// its lifetime: problems implementing ReusableProblem get a private
// scratch-owning closure, everything else shares the concurrency-safe
// Evaluate.
func (e *evaluator) evalFunc() func([]float64) ([]float64, error) {
	if rp, ok := e.prob.(ReusableProblem); ok {
		return rp.NewEvaluator()
	}
	return e.prob.Evaluate
}

// evalFn returns worker slot w's persistent evaluation function,
// creating it on first use. Called from the coordinating goroutine only
// (before the worker goroutines start), so no locking is needed.
func (e *evaluator) evalFn(w int) func([]float64) ([]float64, error) {
	for len(e.evalFns) <= w {
		e.evalFns = append(e.evalFns, nil)
	}
	if e.evalFns[w] == nil {
		e.evalFns[w] = e.evalFunc()
	}
	return e.evalFns[w]
}

// evaluateOne scores one parameter-gene vector through the cache: a hit
// returns the memoised objectives without simulating; a miss simulates
// via the worker's eval function and memoises the outcome (failures
// included, so known-bad genomes are never re-simulated).
func (e *evaluator) evaluateOne(eval func([]float64) ([]float64, error), params []float64) ([]float64, bool) {
	m := e.prob.NumObjectives()
	var key string
	if e.cache != nil {
		key = quantKey(params)
		if ent, hit := e.cache.get(key); hit {
			if !ent.ok {
				return nil, false
			}
			return append([]float64(nil), ent.objs...), true
		}
	}
	objs, err := eval(params)
	ok := err == nil && len(objs) == m
	if e.cache != nil {
		ent := cacheEntry{ok: ok}
		if ok {
			ent.objs = append([]float64(nil), objs...)
		}
		e.cache.put(key, ent)
	}
	if !ok {
		return nil, false
	}
	return objs, true
}

// evaluatePopulation scores one generation: it simulates every
// individual's objectives in parallel, archives them, updates the
// objective ranges, and assigns each individual the eq. 5 fitness
//
//	O(x,w) = Σ_j w_j · (f_j(x) − f_j,min) / (f_j,max − f_j,min)
//
// with minimised objectives reflected so that larger is always better.
func (e *evaluator) evaluatePopulation(genomes [][]float64) []float64 {
	np := e.prob.NumParams()
	m := e.prob.NumObjectives()
	maximize := e.prob.Maximize()

	// A fixed pool of workers, each owning a long-lived evaluation
	// function (and with it any reusable solver workspaces), drains the
	// generation off a channel. Archive order stays index-ordered, so
	// results are identical for any worker count.
	evals := make([]Evaluation, len(genomes))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(genomes) {
		workers = len(genomes)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		eval := e.evalFn(w)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				g := genomes[i]
				params := append([]float64(nil), g[:np]...)
				ev := Evaluation{ParamGenes: params, Weights: NormalizeWeights(g[np:])}
				if objs, ok := e.evaluateOne(eval, params); ok {
					ev.Objectives = objs
					ev.OK = true
				} else {
					ev.Objectives = nanVec(m)
				}
				evals[i] = ev
			}
		}()
	}
	for i := range genomes {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range evals {
		if !evals[i].OK {
			continue
		}
		for k, v := range evals[i].Objectives {
			if v < e.min[k] {
				e.min[k] = v
			}
			if v > e.max[k] {
				e.max[k] = v
			}
		}
		_ = i
	}
	fits := make([]float64, len(evals))
	for i := range evals {
		if !evals[i].OK {
			evals[i].Fitness = -1
			fits[i] = -1
			e.archive = append(e.archive, evals[i])
			continue
		}
		f := 0.0
		for k, v := range evals[i].Objectives {
			span := e.max[k] - e.min[k]
			var norm float64
			if span <= 0 {
				norm = 0.5
			} else if maximize[k] {
				norm = (v - e.min[k]) / span
			} else {
				norm = (e.max[k] - v) / span
			}
			f += evals[i].Weights[k] * norm
		}
		evals[i].Fitness = f
		fits[i] = f
		e.archive = append(e.archive, evals[i])
	}
	return fits
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// Run executes the WBGA and extracts the Pareto front from the archive.
//
// Cancellation is cooperative with one-generation granularity: when ctx
// is cancelled mid-run, Run returns the partial Result — the archive of
// every evaluation completed so far, with FrontIdx left nil — together
// with ctx.Err().
func Run(ctx context.Context, p Problem, o Options) (*Result, error) {
	return run(ctx, p, o, newGenomeCache(DefaultCacheSize))
}

// run is Run over the given genome cache. A nil cache simulates every
// genome afresh: the uncached reference the cache tests compare against.
func run(ctx context.Context, p Problem, o Options, cache *genomeCache) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		return nil, fmt.Errorf("wbga: nil problem")
	}
	if p.NumParams() <= 0 || p.NumObjectives() <= 0 {
		return nil, fmt.Errorf("wbga: problem needs params and objectives")
	}
	if len(p.Maximize()) != p.NumObjectives() {
		return nil, fmt.Errorf("wbga: Maximize length %d != objectives %d",
			len(p.Maximize()), p.NumObjectives())
	}
	if o.PopSize <= 0 {
		o.PopSize = 100
	}
	if o.PopSize < 2 {
		return nil, fmt.Errorf("wbga: PopSize must be at least 2, got %d", o.PopSize)
	}
	if o.Generations <= 0 {
		o.Generations = 100
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ev := newEvaluator(p, workers, cache)
	evaluations, err := evolve(ctx, ev, o)
	res := &Result{Evals: ev.archive, Evaluations: evaluations}
	hits, misses := cache.stats()
	res.CacheHits, res.CacheMisses = int(hits), int(misses)
	if err != nil {
		// Cancelled mid-run: preserve the partial archive, skip the
		// front extraction (the archive is incomplete).
		return res, err
	}
	objs := make([][]float64, len(res.Evals))
	for i := range res.Evals {
		objs[i] = res.Evals[i].Objectives
	}
	res.FrontIdx = pareto.Front(objs, p.Maximize())
	return res, nil
}

// evolve runs the GA over genomes of parameter genes followed by weight
// genes, all in [0,1]: each generation after the first carries the
// previous one's elite (its first genome of highest fitness; NaN never
// qualifies, so an all-NaN generation has none) and fills up with
// children of tournament-selected parents, crossed with probability
// crossoverRate and then mutated. Every generation is scored through ev
// and reported to o.OnGeneration. ctx is checked before each
// generation; evolve returns the evaluations made and, if the run was
// cut short, ctx.Err().
func evolve(ctx context.Context, ev *evaluator, o Options) (int, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	pop := make([][]float64, o.PopSize)
	for i := range pop {
		pop[i] = make([]float64, ev.prob.NumParams()+ev.prob.NumObjectives())
		for j := range pop[i] {
			pop[i][j] = rng.Float64()
		}
	}
	var fits []float64
	elite, evals := -1, 0
	for gen := 1; gen <= o.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return evals, err
		}
		if gen > 1 {
			next := make([][]float64, 0, len(pop))
			if elite >= 0 {
				// No genome is written once bred, so the elite is shared.
				next = append(next, pop[elite])
			}
			for len(next) < len(pop) {
				c1 := append([]float64(nil), pop[tournament(fits, rng)]...)
				c2 := append([]float64(nil), pop[tournament(fits, rng)]...)
				if rng.Float64() < crossoverRate {
					crossover(c1, c2, rng)
				}
				// c2 draws its mutations even when only c1 fits: every
				// seeded archive depends on this order of draws.
				mutate(c1, rng)
				mutate(c2, rng)
				next = append(next, c1)
				if len(next) < len(pop) {
					next = append(next, c2)
				}
			}
			pop = next
		}
		fits = ev.evaluatePopulation(pop)
		evals += len(pop)
		elite = -1
		best := math.Inf(-1)
		for i, f := range fits {
			if f > best {
				elite, best = i, f
			}
		}
		if o.OnGeneration != nil {
			hits, misses := ev.cache.stats()
			o.OnGeneration(GenStats{Gen: gen, Evals: evals, BestFitness: best,
				CacheHits: int(hits), CacheMisses: int(misses)})
		}
	}
	return evals, nil
}

// tournament returns the index of the fitter of two uniformly drawn
// individuals: binary tournament selection, keeping the first on a tie
// or a NaN.
func tournament(fits []float64, rng *rand.Rand) int {
	a := rng.Intn(len(fits))
	if b := rng.Intn(len(fits)); fits[b] > fits[a] {
		a = b
	}
	return a
}

// crossover swaps the tails of a and b after a cut drawn uniformly from
// [1, len(a)-1] (single-point crossover; genomes have at least one
// parameter and one weight gene).
func crossover(a, b []float64, rng *rand.Rand) {
	cut := 1 + rng.Intn(len(a)-1)
	for i := cut; i < len(a); i++ {
		a[i], b[i] = b[i], a[i]
	}
}

// mutate adds a Gaussian step of standard deviation mutationSigma to
// each gene with probability 1/len(g), clamping the result to [0,1].
func mutate(g []float64, rng *rand.Rand) {
	rate := 1 / float64(len(g))
	for i := range g {
		if rng.Float64() < rate {
			g[i] = clamp01(g[i] + rng.NormFloat64()*mutationSigma)
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// GAStringLayout renders the Fig 4/6 GA-string construction for
// documentation and tool output, e.g.
// "| W1 | L1 | ... | L4 || Wg1 | Wg2 |".
func GAStringLayout(paramNames, weightNames []string) string {
	var b strings.Builder
	b.WriteString("|")
	for _, p := range paramNames {
		fmt.Fprintf(&b, " %s |", p)
	}
	b.WriteString("|")
	for _, w := range weightNames {
		fmt.Fprintf(&b, " %s |", w)
	}
	return b.String()
}
