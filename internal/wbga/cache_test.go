package wbga

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// countingProblem counts real evaluations so tests can distinguish cache
// hits from fresh simulations.
type countingProblem struct {
	calls atomic.Int64
	fail  bool
}

func (*countingProblem) NumParams() int     { return 3 }
func (*countingProblem) NumObjectives() int { return 2 }
func (*countingProblem) Maximize() []bool   { return []bool{true, true} }
func (p *countingProblem) Evaluate(g []float64) ([]float64, error) {
	p.calls.Add(1)
	if p.fail {
		return nil, errors.New("synthetic failure")
	}
	s := g[0] + 2*g[1] + 4*g[2]
	return []float64{s, 1 - s}, nil
}

// TestCacheHitMatchesFreshEvaluation checks that a cache hit returns
// objectives identical to a fresh evaluation and skips the simulation.
func TestCacheHitMatchesFreshEvaluation(t *testing.T) {
	p := &countingProblem{}
	e := newEvaluator(p, 1, newGenomeCache(16))
	eval := e.evalFunc()

	genes := []float64{0.25, 0.5, 0.75}
	fresh, ok := e.evaluateOne(eval, genes)
	if !ok {
		t.Fatal("fresh evaluation failed")
	}
	cached, ok := e.evaluateOne(eval, append([]float64(nil), genes...))
	if !ok {
		t.Fatal("cached evaluation failed")
	}
	for k := range fresh {
		if cached[k] != fresh[k] {
			t.Errorf("objective %d: cached %g != fresh %g", k, cached[k], fresh[k])
		}
	}
	if got := p.calls.Load(); got != 1 {
		t.Errorf("problem evaluated %d times, want 1", got)
	}
	if hits, misses := e.cache.stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestCacheMemoisesFailures checks failed genomes are cached and never
// re-simulated.
func TestCacheMemoisesFailures(t *testing.T) {
	p := &countingProblem{fail: true}
	e := newEvaluator(p, 1, newGenomeCache(16))
	eval := e.evalFunc()
	genes := []float64{0.1, 0.2, 0.3}
	for i := 0; i < 3; i++ {
		if _, ok := e.evaluateOne(eval, genes); ok {
			t.Fatal("failing problem reported success")
		}
	}
	if got := p.calls.Load(); got != 1 {
		t.Errorf("failing genome simulated %d times, want 1", got)
	}
}

// TestCacheEvictionBound checks the cache never exceeds its bound and
// evicts oldest-first.
func TestCacheEvictionBound(t *testing.T) {
	c := newGenomeCache(4)
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = quantKey([]float64{float64(i) / 10, 0.5})
		c.put(keys[i], cacheEntry{objs: []float64{float64(i)}, ok: true})
		if c.len() > 4 {
			t.Fatalf("cache grew to %d entries, bound 4", c.len())
		}
	}
	// The four newest keys survive; the oldest six are gone.
	for i, k := range keys {
		_, hit := c.get(k)
		if want := i >= 6; hit != want {
			t.Errorf("key %d: hit=%v, want %v", i, hit, want)
		}
	}
	// Re-putting an existing key must not grow or evict.
	c.put(keys[9], cacheEntry{objs: []float64{99}, ok: true})
	if c.len() != 4 {
		t.Errorf("refresh changed size to %d", c.len())
	}
	if e, hit := c.get(keys[9]); !hit || e.objs[0] != 99 {
		t.Error("refresh did not update the entry")
	}
}

// TestCacheQuantization checks genomes closer than the quantisation step
// share a key while clearly distinct genomes do not.
func TestCacheQuantization(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{0.5 + 1e-12, 0.5}
	d := []float64{0.5 + 1e-6, 0.5}
	if quantKey(a) != quantKey(b) {
		t.Error("sub-quantum perturbation changed the key")
	}
	if quantKey(a) == quantKey(d) {
		t.Error("distinct genomes share a key")
	}
	// Out-of-range genes clamp rather than wrap.
	if quantKey([]float64{-0.5}) != quantKey([]float64{0}) {
		t.Error("negative gene did not clamp to 0")
	}
	if quantKey([]float64{1.5}) != quantKey([]float64{1}) {
		t.Error("oversized gene did not clamp to 1")
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run under
// `go test -race` this doubles as the data-race check.
func TestCacheConcurrent(t *testing.T) {
	c := newGenomeCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := quantKey([]float64{float64((w+i)%50) / 50, float64(i%7) / 7})
				if _, hit := c.get(k); !hit {
					c.put(k, cacheEntry{objs: []float64{float64(i)}, ok: true})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.len() > 32 {
		t.Errorf("cache exceeded bound: %d", c.len())
	}
	hits, misses := c.stats()
	if hits+misses != 8*500 {
		t.Errorf("lookup count %d, want %d", hits+misses, 8*500)
	}
}

// TestRunReportsCacheCounters runs a full WBGA and checks the counters
// are consistent and that hits appear once the population converges.
func TestRunReportsCacheCounters(t *testing.T) {
	p := &countingProblem{}
	res, err := Run(context.Background(), p, Options{PopSize: 20, Generations: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits+res.CacheMisses != res.Evaluations {
		t.Errorf("hits %d + misses %d != evaluations %d",
			res.CacheHits, res.CacheMisses, res.Evaluations)
	}
	if res.CacheHits == 0 {
		t.Error("no cache hits across 15 generations (elites alone should hit)")
	}
	if int(p.calls.Load()) != res.CacheMisses {
		t.Errorf("problem simulated %d times but misses = %d", p.calls.Load(), res.CacheMisses)
	}
	// The archive still records every evaluation individually.
	if len(res.Evals) != res.Evaluations {
		t.Errorf("archive %d != evaluations %d", len(res.Evals), res.Evaluations)
	}
}

// TestUncachedReferenceSimulatesEveryGenome checks the nil-cache
// reference run: it counts no lookups and simulates every evaluation.
func TestUncachedReferenceSimulatesEveryGenome(t *testing.T) {
	p := &countingProblem{}
	res, err := run(context.Background(), p, Options{PopSize: 10, Generations: 5, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 {
		t.Errorf("uncached run counted %d/%d", res.CacheHits, res.CacheMisses)
	}
	if int(p.calls.Load()) != res.Evaluations {
		t.Errorf("simulated %d, want every one of %d", p.calls.Load(), res.Evaluations)
	}
}

// TestCachedRunMatchesUncachedRun checks caching changes no archived
// result: fitnesses and objectives are identical with and without it.
func TestCachedRunMatchesUncachedRun(t *testing.T) {
	a, err := Run(context.Background(), &countingProblem{}, Options{PopSize: 15, Generations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(context.Background(), &countingProblem{}, Options{PopSize: 15, Generations: 10, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Evals) != len(b.Evals) {
		t.Fatal("archive sizes differ")
	}
	for i := range a.Evals {
		if a.Evals[i].Fitness != b.Evals[i].Fitness {
			t.Fatalf("eval %d fitness differs: %g vs %g", i, a.Evals[i].Fitness, b.Evals[i].Fitness)
		}
		for k := range a.Evals[i].Objectives {
			ao, bo := a.Evals[i].Objectives[k], b.Evals[i].Objectives[k]
			if ao != bo && !(math.IsNaN(ao) && math.IsNaN(bo)) {
				t.Fatalf("eval %d objective %d differs: %g vs %g", i, k, ao, bo)
			}
		}
	}
}

// reusableProbe wraps countingProblem to verify NewEvaluator is used for
// worker-local state.
type reusableProbe struct {
	countingProblem
	evaluators atomic.Int64
}

func (p *reusableProbe) NewEvaluator() func([]float64) ([]float64, error) {
	p.evaluators.Add(1)
	scratch := make([]float64, 2) // stands in for a solver workspace
	return func(g []float64) ([]float64, error) {
		p.calls.Add(1)
		scratch[0] = g[0] + 2*g[1] + 4*g[2]
		scratch[1] = 1 - scratch[0]
		return append([]float64(nil), scratch...), nil
	}
}

// TestReusableProblemWorkers checks every worker gets its own evaluator
// and results match the plain path.
func TestReusableProblemWorkers(t *testing.T) {
	p := &reusableProbe{}
	res, err := run(context.Background(), p, Options{PopSize: 12, Generations: 4, Seed: 9, Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.evaluators.Load() == 0 {
		t.Fatal("NewEvaluator never called")
	}
	plain, err := run(context.Background(), &countingProblem{}, Options{PopSize: 12, Generations: 4, Seed: 9, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Evals {
		if res.Evals[i].Fitness != plain.Evals[i].Fitness {
			t.Fatalf("eval %d fitness differs between reusable and plain paths", i)
		}
	}
}

// TestEvaluatePopulationConcurrentCache exercises the full parallel
// evaluation path with duplicate genomes under the race detector.
func TestEvaluatePopulationConcurrentCache(t *testing.T) {
	p := &countingProblem{}
	e := newEvaluator(p, 8, newGenomeCache(64))
	genomes := make([][]float64, 64)
	for i := range genomes {
		v := float64(i%8) / 8
		genomes[i] = []float64{v, v / 2, v / 3, 1, 1} // 3 params + 2 weights
	}
	for round := 0; round < 3; round++ {
		fits := e.evaluatePopulation(genomes)
		if len(fits) != len(genomes) {
			t.Fatal("fitness length mismatch")
		}
	}
	// 8 distinct genomes; concurrent first-round misses may double-
	// simulate a genome, but later rounds must all hit.
	if got := p.calls.Load(); got < 8 || got > 64 {
		t.Errorf("simulated %d times, want between 8 and 64", got)
	}
}
