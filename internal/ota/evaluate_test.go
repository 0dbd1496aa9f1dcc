package ota

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/process"
)

// samePerf reports whether two evaluations agree bit for bit, errors
// included.
func samePerf(a, b Perf, aerr, berr error) bool {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return false
	}
	for _, f := range [][2]float64{
		{a.GainDB, b.GainDB}, {a.PMDeg, b.PMDeg}, {a.UnityHz, b.UnityHz},
		{a.BW3dB, b.BW3dB}, {a.VOut, b.VOut},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return true
}

// fullSweepPerf measures an evaluation the long way: the same operating
// point, the whole 71-point sweep, then perfFrom.
func fullSweepPerf(c Config, p Params, s *process.Sample, ws *analysis.Workspace) (Perf, error) {
	n, op, vout, err := c.solve(p, s, ws)
	if err != nil {
		return Perf{}, err
	}
	ac, err := analysis.ACDecadeWith(n, op, sweepStart, sweepStop, 10, ws)
	if err != nil {
		return Perf{}, err
	}
	tf, err := ac.V("out")
	if err != nil {
		return Perf{}, err
	}
	return perfFrom(ac.Freqs, tf, vout)
}

// TestEvaluateWSMatchesFullSweep is the prefix sweep's oracle: over
// seeded random designs, nominal and sampled, every figure and every
// error of EvaluateWS equals perfFrom of the full sweep bit for bit.
func TestEvaluateWSMatchesFullSweep(t *testing.T) {
	c := DefaultConfig()
	space := DefaultSpace()
	proc := process.C35()
	rng := rand.New(rand.NewSource(2024))
	ws, oracle := analysis.NewWorkspace(), analysis.NewWorkspace()
	designs, failed := 2000, 0
	for i := 0; i < designs; i++ {
		g := make([]float64, 8)
		for j := range g {
			g[j] = rng.Float64()
		}
		p, err := space.Denormalize(g)
		if err != nil {
			t.Fatal(err)
		}
		// A Sample draws its device shifts as the netlist is built, so
		// each evaluation gets its own copy of sample k.
		sample := func() *process.Sample { return nil }
		if k := rng.Intn(200); i%2 == 1 {
			sample = func() *process.Sample { return proc.NewSample(int64(i), k) }
		}
		got, gerr := c.EvaluateWS(p, sample(), ws)
		want, werr := fullSweepPerf(c, p, sample(), oracle)
		if !samePerf(got, want, gerr, werr) {
			t.Fatalf("design %d (sampled %v): prefix sweep %+v (%v), full sweep %+v (%v)",
				i, i%2 == 1, got, gerr, want, werr)
		}
		if gerr != nil {
			failed++
		}
	}
	if failed > designs/10 {
		t.Errorf("%d of %d designs failed to evaluate", failed, designs)
	}
	t.Logf("%d designs, %d evaluation errors, all bit-identical", designs, failed)
}

// TestEvaluateWSHistoryIndependent: a sample's result depends on its
// design and sample alone, never on what the workspace evaluated
// before — one workspace running A, B, then A again returns the bits
// of fresh workspaces.
func TestEvaluateWSHistoryIndependent(t *testing.T) {
	c := DefaultConfig()
	proc := process.C35()
	a := NominalParams()
	b := NominalParams()
	b.W2, b.L3 = 30*um, 2.5*um
	ws := analysis.NewWorkspace()
	for _, p := range []Params{a, b, a} {
		for i := 0; i < 6; i++ {
			got, gerr := c.EvaluateWS(p, proc.NewSample(5, i), ws)
			want, werr := c.EvaluateWS(p, proc.NewSample(5, i), analysis.NewWorkspace())
			if !samePerf(got, want, gerr, werr) {
				t.Fatalf("design %+v sample %d: reused workspace %+v (%v), fresh %+v (%v)",
					p, i, got, gerr, want, werr)
			}
		}
	}
	if st := ws.Stats(); st.Solves != 3*6+3 {
		t.Errorf("stats %+v: want %d solves (one nominal per run of samples)", st, 3*6+3)
	}
}

// TestEvaluateMatchesEvaluateWS: the allocating entry point and the
// workspace one run the same path, so sampled results agree bit for
// bit.
func TestEvaluateMatchesEvaluateWS(t *testing.T) {
	c := DefaultConfig()
	proc := process.C35()
	ws := analysis.NewWorkspace()
	for i := 0; i < 8; i++ {
		got, gerr := c.Evaluate(NominalParams(), proc.NewSample(9, i))
		want, werr := c.EvaluateWS(NominalParams(), proc.NewSample(9, i), ws)
		if !samePerf(got, want, gerr, werr) {
			t.Fatalf("sample %d: Evaluate %+v (%v), EvaluateWS %+v (%v)", i, got, gerr, want, werr)
		}
	}
}

// TestEvaluateSampleAllocBudget pins the allocation budget of one
// Monte Carlo sample as every worker runs it: the sample's random
// stream, then a sampled EvaluateWS through a reused workspace — the
// netlist, the operating point and the measured prefix of the transfer
// function (about 13 KB in 53 objects; with the full sweep from a zero
// start it was about 30 KB in 58).
func TestEvaluateSampleAllocBudget(t *testing.T) {
	c := DefaultConfig()
	p := NominalParams()
	proc := process.C35()
	ws := analysis.NewWorkspace()
	i := 0
	eval := func() {
		i++
		if _, err := c.EvaluateWS(p, proc.NewSample(1, i), ws); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	allocs := testing.AllocsPerRun(50, eval)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if allocs > 56 || bytes > 16<<10 {
		t.Errorf("sampled EvaluateWS allocates %.0f B in %v objects per call, budget 16 KiB in 56", bytes, allocs)
	}
}
