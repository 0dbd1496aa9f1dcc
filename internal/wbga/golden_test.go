package wbga

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wbga_golden.txt from the current code")

const goldenFile = "testdata/wbga_golden.txt"

// hostileProblem is a synthetic three-parameter problem built to reach
// the GA's edge cases. By default, genomes with a small first gene fail
// (fitness −1) and genomes near the top of the second and third genes
// return +Inf and −Inf objectives (NaN fitness under eq. 5, which the
// elite scan never picks). With poison, nothing fails, but a genome
// near the top of the third gene returns +Inf for the minimised second
// objective: from then on eq. 5 scores every genome NaN, so no
// generation has an elite. Three objectives with mixed senses route
// the front through the all-pairs path.
type hostileProblem struct{ poison bool }

func (hostileProblem) NumParams() int     { return 3 }
func (hostileProblem) NumObjectives() int { return 3 }
func (hostileProblem) Maximize() []bool   { return []bool{true, false, true} }
func (h hostileProblem) Evaluate(g []float64) ([]float64, error) {
	out := []float64{g[0] - g[1]*g[1], g[0] + g[2], math.Sin(7*g[1]) * g[2]}
	if h.poison {
		if g[2] > 0.9 {
			out[1] = math.Inf(1)
		}
		return out, nil
	}
	if g[0] < 0.08 {
		return nil, errors.New("synthetic failure")
	}
	if g[1] > 0.96 {
		out[0] = math.Inf(1)
	}
	if g[2] > 0.97 {
		out[1] = math.Inf(-1)
	}
	return out, nil
}

// goldenRun is one pinned WBGA run. cancelAt > 0 cancels the run from
// OnGeneration once that generation has been scored.
type goldenRun struct {
	name     string
	prob     Problem
	opts     Options
	cancelAt int
}

func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, seed := range []int64{1, 7, 42} {
		for _, workers := range []int{1, 3} {
			runs = append(runs,
				goldenRun{name: fmt.Sprintf("synthetic/seed%d/w%d", seed, workers), prob: biObjective{},
					opts: Options{PopSize: 20, Generations: 12, Seed: seed, Workers: workers}},
				goldenRun{name: fmt.Sprintf("ota/seed%d/w%d", seed, workers), prob: newOTABenchProblem(),
					opts: Options{PopSize: 12, Generations: 6, Seed: seed, Workers: workers}})
		}
	}
	for _, workers := range []int{1, 3} {
		runs = append(runs,
			goldenRun{name: fmt.Sprintf("odd/w%d", workers), prob: biObjective{},
				opts: Options{PopSize: 15, Generations: 9, Seed: 3, Workers: workers}},
			goldenRun{name: fmt.Sprintf("hostile/w%d", workers), prob: hostileProblem{},
				opts: Options{PopSize: 24, Generations: 10, Seed: 5, Workers: workers}},
			goldenRun{name: fmt.Sprintf("noelite/w%d", workers), prob: hostileProblem{poison: true},
				opts: Options{PopSize: 11, Generations: 6, Seed: 9, Workers: workers}},
			goldenRun{name: fmt.Sprintf("cancel/w%d", workers), prob: biObjective{failEvery: 5},
				opts: Options{PopSize: 14, Generations: 10, Seed: 2, Workers: workers}, cancelAt: 3})
	}
	// Zero budgets select the paper's 100 × 100 defaults.
	runs = append(runs, goldenRun{name: "defaults/w2", prob: biObjective{},
		opts: Options{Seed: 11, Workers: 2}})
	return runs
}

// digestRun hashes the Float64bits of every archived value, in order.
func digestRun(res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, e := range res.Evals {
		put(e.ParamGenes...)
		put(e.Weights...)
		put(e.Objectives...)
		put(e.Fitness)
		if e.OK {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWBGAGolden pins the optimiser to digests recorded in testdata:
// for each run, a sha256 over the bits of every archived ParamGenes,
// Weights, Objectives, Fitness and OK, the front indices, the
// evaluation count, the genome-cache counters and every GenStats
// report. With more than one worker, duplicate genomes can race within
// a generation and split a hit into two misses, so those runs pin only
// the total lookup count; the archive is the same for any worker count.
// Never regenerate it (-update) for a change that is meant to keep the
// numerics.
func TestWBGAGolden(t *testing.T) {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for _, r := range goldenRuns() {
		ctx, cancel := context.WithCancel(context.Background())
		exact := r.opts.Workers == 1
		gh := sha256.New()
		opts := r.opts
		opts.OnGeneration = func(gs GenStats) {
			if exact {
				fmt.Fprintf(gh, "%d %d %016x %d %d\n", gs.Gen, gs.Evals, math.Float64bits(gs.BestFitness), gs.CacheHits, gs.CacheMisses)
			} else {
				fmt.Fprintf(gh, "%d %d %016x %d\n", gs.Gen, gs.Evals, math.Float64bits(gs.BestFitness), gs.CacheHits+gs.CacheMisses)
			}
			if gs.Gen == r.cancelAt {
				cancel()
			}
		}
		res, err := Run(ctx, r.prob, opts)
		cancel()
		if r.cancelAt > 0 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", r.name, err)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		p := r.name + " "
		add("%sevals %d archive %s", p, len(res.Evals), digestRun(res))
		if res.FrontIdx == nil {
			add("%sfront nil", p)
		} else {
			add("%sfront %d %x", p, len(res.FrontIdx), sha256.Sum256([]byte(fmt.Sprint(res.FrontIdx))))
		}
		add("%sevaluations %d", p, res.Evaluations)
		if exact {
			add("%scache %d hits %d misses", p, res.CacheHits, res.CacheMisses)
		} else {
			add("%scache %d lookups", p, res.CacheHits+res.CacheMisses)
		}
		add("%sgenstats %s", p, hex.EncodeToString(gh.Sum(nil)))
	}

	path := filepath.FromSlash(goldenFile)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the test records %d", goldenFile, len(want), len(lines))
	}
	for i, got := range lines {
		if got != want[i] {
			t.Errorf("golden mismatch:\n got  %s\n want %s", got, want[i])
		}
	}
}
