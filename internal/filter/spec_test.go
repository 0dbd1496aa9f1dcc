package filter

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/ota"
	"analogyield/internal/process"
)

// sameFigures reports whether two spec measurements agree bit for bit,
// with NaN equal to NaN, errors included.
func sameFigures(a, b []float64, aerr, berr error) bool {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// figures returns the three spec figures of r, or nil with an error.
func figures(r Response, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	return []float64{r.DCGainDB, r.PassbandDevDB, r.StopbandAttenDB}, nil
}

// fullSweepSample measures a sample the long way: the operating point
// the sample evaluator solves, then the whole 61-point sweep and reduce.
func fullSweepSample(d filterDesign, spec Spec, s *process.Sample, ws *analysis.Workspace) ([]float64, error) {
	n := BuildTransistor(d.caps, d.cfg, d.params, s)
	nominal := func() *circuit.Netlist { return BuildTransistor(d.caps, d.cfg, d.params, nil) }
	op, err := analysis.SampleOP(n, d, nominal, ws)
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	return figures(measureAt(n, op, spec))
}

// withEdges returns DefaultSpec with the given passband and stopband
// edges.
func withEdges(pass, stop float64) Spec {
	s := DefaultSpec()
	s.PassbandEdge, s.StopbandEdge = pass, stop
	return s
}

// edgeSpecs are the band edges the oracle and the fuzz seeds cover: on
// and between grid points, at and beyond both ends of the grid, NaN,
// ±Inf, and a stopband edge below the passband edge.
func edgeSpecs() []Spec {
	between := func(i int) float64 { return math.Sqrt(grid[i] * grid[i+1]) }
	last := grid[len(grid)-1]
	nan, inf := math.NaN(), math.Inf(1)
	return []Spec{
		DefaultSpec(),
		withEdges(grid[20], grid[50]),
		withEdges(between(20), between(45)),
		withEdges(grid[0], grid[0]),
		withEdges(last, last),
		withEdges(999, 999),
		withEdges(0, 0),
		withEdges(-5, -5),
		withEdges(1e9, 1e9),
		withEdges(math.Nextafter(last, inf), math.Nextafter(last, inf)),
		withEdges(nan, 10e6),
		withEdges(500e3, nan),
		withEdges(nan, nan),
		withEdges(inf, inf),
		withEdges(-inf, -inf),
		withEdges(inf, -inf),
		withEdges(5e6, 100e3),
	}
}

// randomCaps draws capacitors uniformly over DefaultCapSpace.
func randomCaps(t testing.TB, rng *rand.Rand) Caps {
	c, err := DefaultCapSpace().Denormalize([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkBehavioural holds the spec path of a behavioural design to
// Measure's full sweep, through a reused workspace and through none.
func checkBehavioural(t *testing.T, caps Caps, spec Spec, ws *analysis.Workspace) {
	t.Helper()
	gm, ro := benchGmRo(t)
	freqs := specFreqs(spec)
	want, werr := figures(Measure(BuildBehavioural(caps, gm, ro), spec))
	for _, probe := range []*specProbe{newSpecProbe(spec, freqs, ws), newSpecProbe(spec, freqs, nil)} {
		got, gerr := figures(probe.measure(BuildBehavioural(caps, gm, ro)))
		if !sameFigures(got, want, gerr, werr) {
			t.Fatalf("behavioural %+v, spec %+v: spec sweep %v (%v), full sweep %v (%v)",
				caps, spec, got, gerr, want, werr)
		}
	}
}

// checkSamples holds the Monte Carlo sample evaluator to the full sweep
// for samples 0..n-1 of seed at caps. It returns how many failed.
func checkSamples(t *testing.T, caps Caps, spec Spec, seed int64, n int, oracle *analysis.Workspace) int {
	t.Helper()
	proc := process.C35()
	d := filterDesign{caps, ota.DefaultConfig(), ota.NominalParams()}
	eval := sampleEvaluator(d, spec, specFreqs(spec))
	failed := 0
	for k := 0; k < n; k++ {
		// A Sample draws its device shifts as the netlist is built, so
		// each evaluation gets its own copy of sample k.
		got, gerr := eval(0, proc.NewSample(seed, k))
		want, werr := fullSweepSample(d, spec, proc.NewSample(seed, k), oracle)
		if !sameFigures(got, want, gerr, werr) {
			t.Fatalf("caps %+v, spec %+v, sample %d/%d: spec sweep %v (%v), full sweep %v (%v)",
				caps, spec, seed, k, got, gerr, want, werr)
		}
		if gerr != nil {
			failed++
		}
	}
	return failed
}

// TestSpecFreqsDefaultSpec pins the points the default spec reads:
// 0–32 (the last at 464 kHz, below the 500 kHz passband edge) and the
// pair around 10 MHz, points 47 and 48.
func TestSpecFreqsDefaultSpec(t *testing.T) {
	got := specFreqs(DefaultSpec())
	want := append(append([]float64(nil), grid[:33]...), grid[47], grid[48])
	if len(grid) != 61 || len(got) != len(want) {
		t.Fatalf("%d of %d grid points, want %d of 61", len(got), len(grid), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
	if grid[48] != 10e6 {
		t.Errorf("grid point 48 = %v, want exactly 10 MHz", grid[48])
	}
}

// TestSpecSweepMatchesFullSweep is the spec sweep's oracle: over seeded
// transistor-level samples at random capacitors, behavioural designs and
// a table of edge specs, the three spec figures and every error equal
// reduce over the full 61-point sweep bit for bit. An AC failure at a
// point the figures do not read fails only the full sweep, so it would
// show here as a mismatch; none occurs.
func TestSpecSweepMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	ws, oracle := analysis.NewWorkspace(), analysis.NewWorkspace()
	designs, perDesign, failed := 250, 4, 0
	for i := 0; i < designs; i++ {
		caps := randomCaps(t, rng)
		failed += checkSamples(t, caps, DefaultSpec(), int64(i), perDesign, oracle)
		checkBehavioural(t, caps, DefaultSpec(), ws)
	}
	if samples := designs * perDesign; failed > samples/10 {
		t.Errorf("%d of %d samples failed to evaluate", failed, samples)
	}
	edgeErrors := 0
	for _, spec := range edgeSpecs() {
		for i := 0; i < 8; i++ {
			caps := randomCaps(t, rng)
			checkBehavioural(t, caps, spec, ws)
			if i < 2 {
				edgeErrors += checkSamples(t, caps, spec, int64(1000+i), 2, oracle)
			}
		}
	}
	t.Logf("%d samples (%d errors) and %d edge specs (%d sample errors), all bit-identical",
		designs*perDesign, failed, len(edgeSpecs()), edgeErrors)
}

// FuzzSpecSweepMatchesFullSweep fuzzes both band edges and the
// capacitor genes: the spec sweep of the behavioural filter and of one
// transistor-level sample equals the full sweep bit for bit.
func FuzzSpecSweepMatchesFullSweep(f *testing.F) {
	for i, s := range edgeSpecs() {
		g := float64(i) / float64(len(edgeSpecs()))
		f.Add(s.PassbandEdge, s.StopbandEdge, g, 1-g, g/2)
	}
	f.Fuzz(func(t *testing.T, pass, stop, g1, g2, g3 float64) {
		if math.IsNaN(g1) || math.IsNaN(g2) || math.IsNaN(g3) {
			t.Skip("genes are clamped to [0, 1]; NaN has no place there")
		}
		caps, err := DefaultCapSpace().Denormalize([]float64{g1, g2, g3})
		if err != nil {
			t.Fatal(err)
		}
		spec := withEdges(pass, stop)
		checkBehavioural(t, caps, spec, analysis.NewWorkspace())
		checkSamples(t, caps, spec, int64(math.Float64bits(g1)%1000), 1, analysis.NewWorkspace())
	})
}

// sampleCaps is a designed filter with all three capacitors in place.
var sampleCaps = Caps{C1: 50e-12, C2: 25e-12, C3: 2e-12}

// TestFilterSampleAllocBudget pins the allocation budget of one filter
// Monte Carlo sample as a worker runs it: the sample's random stream,
// BuildTransistor, a warm SampleOP and the spec sweep through a reused
// workspace: about 14.8 KB in 109 objects, where the full 61-point sweep
// takes about 34.9 KB in 115 and fails the budget.
func TestFilterSampleAllocBudget(t *testing.T) {
	proc := process.C35()
	d := filterDesign{sampleCaps, ota.DefaultConfig(), ota.NominalParams()}
	eval := sampleEvaluator(d, DefaultSpec(), specFreqs(DefaultSpec()))
	i := 0
	sample := func() {
		i++
		if _, err := eval(0, proc.NewSample(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	sample()
	allocs := testing.AllocsPerRun(50, sample)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for k := 0; k < runs; k++ {
		sample()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B in %v objects per sample", bytes, allocs)
	if allocs > 112 || bytes > 16<<10 {
		t.Errorf("one filter sample allocates %.0f B in %v objects, budget 16 KiB in 112", bytes, allocs)
	}
}
