package wbga

import (
	"math/rand"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/ota"
)

// otaBenchProblem adapts the seed OTA benchmark (internal/ota) as a
// wbga.Problem, with per-worker solver workspaces via ReusableProblem.
type otaBenchProblem struct {
	cfg   ota.Config
	space ota.Space
}

func newOTABenchProblem() *otaBenchProblem {
	return &otaBenchProblem{cfg: ota.DefaultConfig(), space: ota.DefaultSpace()}
}

func (*otaBenchProblem) NumParams() int     { return 8 }
func (*otaBenchProblem) NumObjectives() int { return 2 }
func (*otaBenchProblem) Maximize() []bool   { return []bool{true, true} }

func (p *otaBenchProblem) eval(genes []float64, ws *analysis.Workspace) ([]float64, error) {
	params, err := p.space.Denormalize(genes)
	if err != nil {
		return nil, err
	}
	perf, err := p.cfg.EvaluateWS(params, nil, ws)
	if err != nil {
		return nil, err
	}
	return []float64{perf.GainDB, perf.PMDeg}, nil
}

func (p *otaBenchProblem) Evaluate(genes []float64) ([]float64, error) {
	return p.eval(genes, nil)
}

func (p *otaBenchProblem) NewEvaluator() func([]float64) ([]float64, error) {
	ws := analysis.NewWorkspace()
	return func(genes []float64) ([]float64, error) { return p.eval(genes, ws) }
}

// benchGeneration builds one GA generation of the given size over the
// OTA problem, with dupFrac of the genomes exact duplicates — the shape
// of a converging population (elites and crossover-only children).
func benchGeneration(popSize int, dupFrac float64) [][]float64 {
	rng := rand.New(rand.NewSource(42))
	genomes := make([][]float64, popSize)
	distinct := int(float64(popSize) * (1 - dupFrac))
	if distinct < 1 {
		distinct = 1
	}
	for i := range genomes {
		if i < distinct {
			g := make([]float64, 8+2)
			for j := range g {
				g[j] = rng.Float64()
			}
			genomes[i] = g
		} else {
			genomes[i] = genomes[rng.Intn(distinct)]
		}
	}
	return genomes
}

// benchmarkWBGAGeneration scores one generation per iteration with a
// fresh evaluator (cold cache), so only intra-generation duplicates hit.
func benchmarkWBGAGeneration(b *testing.B, workers, cacheSize int, dupFrac float64) {
	b.Helper()
	prob := newOTABenchProblem()
	genomes := benchGeneration(32, dupFrac)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := newEvaluator(prob, workers, newGenomeCache(cacheSize))
		if fits := ev.evaluatePopulation(genomes); len(fits) != len(genomes) {
			b.Fatal("fitness length mismatch")
		}
	}
}

// BenchmarkWBGAGeneration is the headline number: one generation of the
// seed OTA problem on the full engine (workspaces + genome cache), with
// the duplicate rate of a mid-run population.
func BenchmarkWBGAGeneration(b *testing.B)        { benchmarkWBGAGeneration(b, 4, 1024, 0.5) }
func BenchmarkWBGAGenerationNoCache(b *testing.B) { benchmarkWBGAGeneration(b, 4, 0, 0.5) }
func BenchmarkWBGAGenerationSerial(b *testing.B)  { benchmarkWBGAGeneration(b, 1, 1024, 0.5) }
