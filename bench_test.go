// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured). Each benchmark prints its
// table/series once per `go test -bench` invocation and then times a
// representative kernel of the experiment.
//
// Budgets default to a scaled-down flow so the full suite runs in a few
// minutes; set ANALOGYIELD_PAPER=1 to use the paper's exact budgets
// (100×100 MOO evaluations, 200 MC samples per Pareto point, 500-sample
// filter MC).
package analogyield_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"analogyield/internal/behave"
	"analogyield/internal/core"
	"analogyield/internal/filter"
	"analogyield/internal/measure"
	"analogyield/internal/montecarlo"
	"analogyield/internal/ota"
	"analogyield/internal/process"
	"analogyield/internal/spline"
	"analogyield/internal/table"
	"analogyield/internal/wbga"
	"analogyield/internal/yield"
)

// paperScale reports whether the full paper budgets were requested.
func paperScale() bool { return os.Getenv("ANALOGYIELD_PAPER") == "1" }

type budgets struct {
	pop, gen, mcPerPoint, filterMC int
}

func budget() budgets {
	if paperScale() {
		return budgets{pop: 100, gen: 100, mcPerPoint: 200, filterMC: 500}
	}
	return budgets{pop: 60, gen: 50, mcPerPoint: 60, filterMC: 120}
}

// ---- shared fixtures -------------------------------------------------

var (
	flowOnce sync.Once
	flowRes  *core.FlowResult
	flowErr  error
	flowDur  time.Duration
)

// sharedFlow runs the full model-building flow once per test binary.
func sharedFlow(b *testing.B) *core.FlowResult {
	b.Helper()
	flowOnce.Do(func() {
		bud := budget()
		t0 := time.Now()
		flowRes, flowErr = core.RunFlow(context.Background(), core.FlowConfig{
			Problem:     core.NewOTAProblem(),
			Proc:        process.C35(),
			PopSize:     bud.pop,
			Generations: bud.gen,
			MCSamples:   bud.mcPerPoint,
			Seed:        1,
			Model:       core.ModelOptions{MaxTablePoints: 150},
		})
		flowDur = time.Since(t0)
	})
	if flowErr != nil {
		b.Fatal(flowErr)
	}
	return flowRes
}

// sharedDesign performs the paper's Table 3 query on the shared model:
// a gain spec in the knee of the front with a PM spec 2° under what the
// front offers there.
func sharedDesign(b *testing.B) (*core.Model, *core.Design, yield.Spec, yield.Spec) {
	b.Helper()
	m := sharedFlow(b).Model
	lo, hi := m.Domain()
	bound := lo + 0.75*(hi-lo)
	pmAt, err := m.PerfFront.Eval(bound)
	if err != nil {
		b.Fatal(err)
	}
	spec0 := yield.Spec{Name: "gain", Sense: yield.AtLeast, Bound: bound}
	spec1 := yield.Spec{Name: "pm", Sense: yield.AtLeast, Bound: pmAt - 2}
	d, err := m.DesignFor(spec0, spec1)
	if err != nil {
		b.Fatal(err)
	}
	return m, d, spec0, spec1
}

var printOnce sync.Map

// printTable emits a table once per benchmark binary invocation.
func printTable(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n", name)
		f()
	}
}

// ---- Table 1: designable parameter ranges -----------------------------

func BenchmarkTable1_ParameterSpace(b *testing.B) {
	space := ota.DefaultSpace()
	printTable("Table 1: design parameters", func() {
		names := space.Names()
		pairs := []string{"(M3,M4)", "(M3,M4)", "(M5,M6)", "(M5,M6)",
			"(M7,M8)", "(M7,M8)", "(M9,M10)", "(M9,M10)"}
		for i, n := range names {
			fmt.Printf("  %-4s %-9s %6.2f um - %6.2f um\n",
				n, pairs[i], space.Lo[i]*1e6, space.Hi[i]*1e6)
		}
		fmt.Println("  Wg1  (gain weight)   0 - 1 (normalised)")
		fmt.Println("  Wg2  (phase weight)  0 - 1 (normalised)")
	})
	genes := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range genes {
			genes[j] = float64((i+j)%11) / 10
		}
		if _, err := space.Denormalize(genes); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 4/6: GA string construction ----------------------------------

func BenchmarkFig4_GAString(b *testing.B) {
	space := ota.DefaultSpace()
	printTable("Fig 4/6: GA string", func() {
		fmt.Println(" ", wbga.GAStringLayout(space.Names(), []string{"Wg1", "Wg2"}))
	})
	raw := []float64{0.3, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wbga.NormalizeWeights(raw)
		if math.Abs(w[0]+w[1]-1) > 1e-9 {
			b.Fatal("weights not normalised")
		}
	}
}

// ---- Fig 7: MOO scatter and Pareto front ------------------------------

func BenchmarkFig7_MOOScatter(b *testing.B) {
	res := sharedFlow(b)
	printTable("Fig 7: gain/PM of all individuals + Pareto front", func() {
		ok := 0
		for _, e := range res.Archive {
			if e.OK {
				ok++
			}
		}
		fmt.Printf("  evaluations: %d (%d successful), Pareto points: %d\n",
			res.Evaluations, ok, len(res.FrontIdx))
		fmt.Println("  front series (gain_db pm_deg), every ~10th point:")
		pts := res.Model.Points
		for i := 0; i < len(pts); i += len(pts)/20 + 1 {
			fmt.Printf("    %7.3f %7.3f\n", pts[i].Perf[0], pts[i].Perf[1])
		}
	})
	// Kernel: one circuit objective evaluation (the unit of the 10,000).
	prob := core.NewOTAProblem()
	genes := make([]float64, 8)
	for j := range genes {
		genes[j] = 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Evaluate(genes, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 2: performance and variation values ------------------------

func BenchmarkTable2_ParetoVariation(b *testing.B) {
	res := sharedFlow(b)
	printTable("Table 2: performance and variation values", func() {
		fmt.Printf("  %-10s %-10s %-10s %-10s\n", "Gain(dB)", "dGain(%)", "PM(deg)", "dPM(%)")
		pts := res.Model.Points
		for i := 0; i < len(pts); i += len(pts)/12 + 1 {
			p := pts[i]
			fmt.Printf("  %-10.2f %-10.2f %-10.1f %-10.2f\n",
				p.Perf[0], p.DeltaPct[0], p.Perf[1], p.DeltaPct[1])
		}
	})
	// Kernel: one Monte Carlo circuit evaluation (the unit of the
	// 1022 × 200 variation-model simulations).
	prob := core.NewOTAProblem()
	proc := process.C35()
	genes := make([]float64, 8)
	for j := range genes {
		genes[j] = 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Evaluate(genes, proc.NewSample(9, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 3: guard-band interpolation --------------------------------

func BenchmarkTable3_Interpolation(b *testing.B) {
	m, d, spec0, spec1 := sharedDesign(b)
	printTable("Table 3: interpolation example", func() {
		fmt.Printf("  %-12s %-16s %-12s %-14s\n", "Performance", "Required", "Variation", "New target")
		fmt.Printf("  %-12s > %-14.2f %-11.2f%% %-14.3f\n", "Gain (dB)",
			spec0.Bound, d.DeltaPct[0], d.Target[0])
		fmt.Printf("  %-12s > %-14.2f %-11.2f%% %-14.3f\n", "PM (deg)",
			spec1.Bound, d.DeltaPct[1], d.Target[1])
		lo, hi := yield.Range(d.Target[0], d.DeltaPct[0])
		fmt.Printf("  gain at target spans [%.3f, %.3f] dB over process extremes\n", lo, hi)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DesignFor(spec0, spec1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §4.4: Verilog-A code generation -----------------------------------

func BenchmarkVerilogACodegen(b *testing.B) {
	m := sharedFlow(b).Model
	printTable("§4.4: generated Verilog-A module (head)", func() {
		va := behave.GenerateVerilogA(m, behave.VAOptions{})
		for i, line := range splitLines(va) {
			if i > 24 {
				fmt.Println("    ...")
				break
			}
			fmt.Println("   ", line)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if va := behave.GenerateVerilogA(m, behave.VAOptions{}); len(va) == 0 {
			b.Fatal("empty module")
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// ---- Table 4: behavioural vs transistor comparison ---------------------

func BenchmarkTable4_ModelVsTransistor(b *testing.B) {
	_, d, _, _ := sharedDesign(b)
	prob := core.NewOTAProblem()
	params, err := prob.ParamsFromTableValues(d.Params)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ota.DefaultConfig()
	perf, err := cfg.Evaluate(params, nil)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Table 4: performance comparison", func() {
		gErr := 100 * math.Abs(perf.GainDB-d.Target[0]) / perf.GainDB
		pErr := 100 * math.Abs(perf.PMDeg-d.FrontPerf[1]) / perf.PMDeg
		fmt.Printf("  %-14s %-12s %-12s %-8s\n", "Function", "Transistor", "Model", "%error")
		fmt.Printf("  %-14s %-12.2f %-12.2f %-8.2f\n", "Gain (dB)", perf.GainDB, d.Target[0], gErr)
		fmt.Printf("  %-14s %-12.2f %-12.2f %-8.2f\n", "Phase margin", perf.PMDeg, d.FrontPerf[1], pErr)
	})
	// Kernel: the transistor-level verification simulation.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Evaluate(params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 8: open-loop gain comparison ----------------------------------

func BenchmarkFig8_OpenLoopGain(b *testing.B) {
	_, d, _, _ := sharedDesign(b)
	prob := core.NewOTAProblem()
	params, err := prob.ParamsFromTableValues(d.Params)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ota.DefaultConfig()
	perf, err := cfg.Evaluate(params, nil)
	if err != nil {
		b.Fatal(err)
	}
	freqs, tf, err := cfg.Response(params, nil, 6)
	if err != nil {
		b.Fatal(err)
	}
	printTable("Fig 8: open-loop gain, transistor vs Verilog-A model", func() {
		a0 := math.Pow(10, perf.GainDB/20)
		fdom := perf.UnityHz / a0
		fmt.Printf("  %-12s %-14s %-14s\n", "freq_hz", "transistor_db", "behavioural_db")
		for i := 0; i < len(freqs); i += 4 {
			beh := perf.GainDB - 10*math.Log10(1+(freqs[i]/fdom)*(freqs[i]/fdom))
			fmt.Printf("  %-12.4g %-14.2f %-14.2f\n",
				freqs[i], measure.GainDB(tf[i]), beh)
		}
		fmt.Println("  (divergence at high frequency = parasitic poles absent from the model,")
		fmt.Println("   exactly the paper's Fig 8 observation)")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cfg.Response(params, nil, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 5: design parameter summary ----------------------------------

func BenchmarkTable5_FlowSummary(b *testing.B) {
	res := sharedFlow(b)
	bud := budget()
	printTable("Table 5: design parameter summary", func() {
		fmt.Printf("  No. Generations:    %d (paper: 100)\n", bud.gen)
		fmt.Printf("  Evaluation samples: %d (paper: 10,000)\n", res.Evaluations)
		fmt.Printf("  Pareto points:      %d (paper: 1022)\n", len(res.FrontIdx))
		fmt.Printf("  MC simulations:     %d (paper: 1022 x 200)\n", res.MCSimulations)
		fmt.Printf("  CPU time:           %.1fs total — MOO %.1fs, MC %.1fs, tables %.3fs\n",
			flowDur.Seconds(), res.Timing.MOO.Seconds(),
			res.Timing.MC.Seconds(), res.Timing.Tables.Seconds())
		fmt.Printf("  (paper: 4 h on a 1.2 GHz UltraSparc 3 for the MOO stage)\n")
	})
	// Kernel: one tiny flow (the whole pipeline at minimum budget).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.RunFlow(context.Background(), core.FlowConfig{
			Problem:     core.NewOTAProblem(),
			Proc:        process.C35(),
			PopSize:     16,
			Generations: 8,
			MCSamples:   10,
			Seed:        int64(i + 2),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 9/10: filter topology and specification -------------------------

func BenchmarkFig10_FilterSpec(b *testing.B) {
	spec := filter.DefaultSpec()
	gm, ro := filterGmRo(b)
	printTable("Fig 9/10: filter topology and anti-aliasing specification", func() {
		fmt.Println("  topology: two-OTA gm-C biquad, C1 (n1-gnd), C2 (out-gnd), C3 (n1-out)")
		fmt.Printf("  passband: flat within ±%.1f dB to %.3g Hz\n", spec.RippleDB, spec.PassbandEdge)
		fmt.Printf("  stopband: >= %.0f dB attenuation at %.3g Hz\n", spec.StopbandAttenDB, spec.StopbandEdge)
		fmt.Printf("  DC gain: >= %.1f dB\n", spec.MinDCGainDB)
		fmt.Printf("  OTA behavioural parameters: gm = %.4g S, ro = %.4g ohm\n", gm, ro)
	})
	caps := filter.Caps{C1: 50e-12, C2: 25e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := filter.BuildBehavioural(caps, gm, ro)
		if _, err := filter.Measure(n, spec); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	gmOnce     sync.Once
	gmVal      float64
	roVal      float64
	gmErr      error
	otaForFilt ota.Params
)

func filterGmRo(b *testing.B) (float64, float64) {
	b.Helper()
	gmOnce.Do(func() {
		cfg := ota.DefaultConfig()
		otaForFilt = ota.NominalParams()
		perf, err := cfg.Evaluate(otaForFilt, nil)
		if err != nil {
			gmErr = err
			return
		}
		gmVal, roVal = behave.FromPerf(perf, cfg.CLoad)
	})
	if gmErr != nil {
		b.Fatal(gmErr)
	}
	return gmVal, roVal
}

// ---- §5: filter optimisation and yield ------------------------------------

var (
	filtOnce sync.Once
	filtOpt  *filter.OptimizeResult
	filtYr   *filter.YieldResult
	filtErr  error
)

func sharedFilterDesign(b *testing.B) (*filter.OptimizeResult, *filter.YieldResult) {
	b.Helper()
	gm, ro := filterGmRo(b)
	filtOnce.Do(func() {
		prob := &filter.Problem{Spec: filter.DefaultSpec(), Space: filter.DefaultCapSpace(), GM: gm, Ro: ro}
		filtOpt, filtErr = filter.Optimize(context.Background(), prob,
			filter.OptimizeOptions{PopSize: 30, Generations: 40, Seed: 1}) // paper's 30 x 40
		if filtErr != nil {
			return
		}
		filtYr, filtErr = filter.VerifyYield(context.Background(), filtOpt.Caps, ota.DefaultConfig(), otaForFilt,
			filter.DefaultSpec(), process.C35(), budget().filterMC, 7)
	})
	if filtErr != nil {
		b.Fatal(filtErr)
	}
	return filtOpt, filtYr
}

func BenchmarkSec5_FilterOptimisation(b *testing.B) {
	opt, yr := sharedFilterDesign(b)
	gm, ro := filterGmRo(b)
	printTable("§5: filter optimisation and Monte Carlo yield", func() {
		fmt.Printf("  MOO: 30 individuals x 40 generations = %d behavioural evaluations\n",
			opt.Evaluations)
		fmt.Printf("  optimised caps: C1 = %.3g F, C2 = %.3g F, C3 = %.3g F\n",
			opt.Caps.C1, opt.Caps.C2, opt.Caps.C3)
		fmt.Printf("  behavioural response: DC %.2f dB, dev %.3f dB, atten %.2f dB\n",
			opt.Response.DCGainDB, opt.Response.PassbandDevDB, opt.Response.StopbandAttenDB)
		fmt.Printf("  transistor-level MC yield (%d samples): %.1f%% (paper: 100%% at 500 samples)\n",
			yr.Samples, 100*yr.Yield)
	})
	prob := &filter.Problem{Spec: filter.DefaultSpec(), Space: filter.DefaultCapSpace(), GM: gm, Ro: ro}
	genes := []float64{0.5, 0.25, 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Evaluate(genes); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 11: filter response ----------------------------------------------

func BenchmarkFig11_FilterResponse(b *testing.B) {
	opt, _ := sharedFilterDesign(b)
	cfg := ota.DefaultConfig()
	nt := filter.BuildTransistor(opt.Caps, cfg, otaForFilt, nil)
	rt, err := filter.Measure(nt, filter.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	printTable("Fig 11: filter transistor-level typical response", func() {
		fmt.Printf("  DC %.2f dB, passband dev %.3f dB, stopband atten %.2f dB, f3dB %.3g Hz\n",
			rt.DCGainDB, rt.PassbandDevDB, rt.StopbandAttenDB, rt.F3dB)
		fmt.Printf("  %-12s %-10s\n", "freq_hz", "gain_db")
		for i := 0; i < len(rt.Freqs); i += 6 {
			fmt.Printf("  %-12.4g %-10.3f\n", rt.Freqs[i], measure.GainDB(rt.TF[i]))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := filter.BuildTransistor(opt.Caps, cfg, otaForFilt, nil)
		if _, err := filter.Measure(n, filter.DefaultSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- headline claim: behavioural model speed-up ----------------------------

func BenchmarkSpeedup_ModelVsTransistor(b *testing.B) {
	opt, _ := sharedFilterDesign(b)
	gm, ro := filterGmRo(b)
	cfg := ota.DefaultConfig()
	spec := filter.DefaultSpec()
	printTable("headline: behavioural vs transistor filter evaluation", func() {
		const n = 50
		t0 := time.Now()
		for i := 0; i < n; i++ {
			nb := filter.BuildBehavioural(opt.Caps, gm, ro)
			if _, err := filter.Measure(nb, spec); err != nil {
				fmt.Println("  error:", err)
				return
			}
		}
		tb := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			nt := filter.BuildTransistor(opt.Caps, cfg, otaForFilt, nil)
			if _, err := filter.Measure(nt, spec); err != nil {
				fmt.Println("  error:", err)
				return
			}
		}
		tt := time.Since(t0)
		fmt.Printf("  behavioural filter eval: %8.3f ms\n", tb.Seconds()*1000/n)
		fmt.Printf("  transistor filter eval:  %8.3f ms\n", tt.Seconds()*1000/n)
		fmt.Printf("  speed-up: %.1fx (the paper's 'fraction of the time' claim)\n",
			tt.Seconds()/tb.Seconds())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := filter.BuildBehavioural(opt.Caps, gm, ro)
		if _, err := filter.Measure(nb, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation: interpolation degree -----------------------------------------

func BenchmarkAblation_InterpolationDegree(b *testing.B) {
	res := sharedFlow(b)
	pts := res.Model.Points
	// Fit each degree to the front and measure leave-one-out error of
	// the gain→PM table (the paper argues cubic maximises accuracy).
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.Perf[0], p.Perf[1]
	}
	looErr := func(deg spline.Degree) float64 {
		var sum float64
		var n int
		for i := 1; i < len(xs)-1; i++ {
			trX := append(append([]float64(nil), xs[:i]...), xs[i+1:]...)
			trY := append(append([]float64(nil), ys[:i]...), ys[i+1:]...)
			m, err := table.NewModel1D(trX, trY, table.Control{Degree: deg, Extrap: table.ExtrapClamp})
			if err != nil {
				continue
			}
			v, err := m.Eval(xs[i])
			if err != nil {
				continue
			}
			sum += (v - ys[i]) * (v - ys[i])
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return math.Sqrt(sum / float64(n))
	}
	printTable("ablation: interpolation degree (leave-one-out RMS error, gain→PM)", func() {
		for _, d := range []struct {
			name string
			deg  spline.Degree
		}{
			{"linear (1)", spline.DegreeLinear},
			{"quadratic (2)", spline.DegreeQuadratic},
			{"cubic (3, paper)", spline.DegreeCubic},
			{"monotone cubic (default)", spline.DegreeMonotoneCubic},
		} {
			fmt.Printf("  %-26s %.5g deg RMS\n", d.name, looErr(d.deg))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.NewModel1D(xs, ys,
			table.Control{Degree: spline.DegreeCubic, Extrap: table.ExtrapError}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation: WBGA vs fixed weights ------------------------------------------

// fixedWeightProblem evaluates the OTA with the weights frozen, the
// classical weighted-sum the paper's §3.2 argues against.
type fixedWeightProblem struct {
	inner *core.OTAProblem
}

func (p fixedWeightProblem) NumParams() int     { return 8 }
func (p fixedWeightProblem) NumObjectives() int { return 2 }
func (p fixedWeightProblem) Maximize() []bool   { return []bool{true, true} }
func (p fixedWeightProblem) Evaluate(g []float64) ([]float64, error) {
	return p.inner.Evaluate(g, nil)
}

func BenchmarkAblation_WBGAvsFixedWeights(b *testing.B) {
	printTable("ablation: WBGA (evolved weights) vs fixed-weight GA", func() {
		prob := core.NewOTAProblem()
		pop, gen := 30, 20
		// WBGA: weights in the GA string.
		wres, err := wbga.Run(context.Background(), wbgaShim{prob}, wbga.Options{PopSize: pop, Generations: gen, Seed: 5})
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		// Fixed weights: same budget, weight genes pinned by using a
		// 0-weight-gene problem (equal weights throughout).
		fres, err := wbga.Run(context.Background(), fixedShim{prob}, wbga.Options{PopSize: pop, Generations: gen, Seed: 5})
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		wSpread := frontSpread(wres)
		fSpread := frontSpread(fres)
		fmt.Printf("  %-24s front=%4d  gain span %.2f dB  pm span %.2f deg\n",
			"WBGA (evolved weights)", len(wres.FrontIdx), wSpread[0], wSpread[1])
		fmt.Printf("  %-24s front=%4d  gain span %.2f dB  pm span %.2f deg\n",
			"fixed equal weights", len(fres.FrontIdx), fSpread[0], fSpread[1])
		fmt.Println("  (the table model needs the whole trade-off curve: a fixed-weight GA")
		fmt.Println("   converges to one compromise point and cannot populate the tables)")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := wbga.NormalizeWeights([]float64{0.2, 0.8}); len(w) != 2 {
			b.Fatal("bad weights")
		}
	}
}

// wbgaShim exposes the OTA problem with evolving weights.
type wbgaShim struct{ p *core.OTAProblem }

func (s wbgaShim) NumParams() int                          { return 8 }
func (s wbgaShim) NumObjectives() int                      { return 2 }
func (s wbgaShim) Maximize() []bool                        { return []bool{true, true} }
func (s wbgaShim) Evaluate(g []float64) ([]float64, error) { return s.p.Evaluate(g, nil) }

// fixedShim reports 2 objectives but collapses the weight genes: the
// wbga engine still evolves them, so to pin the weights it wraps the
// objectives so both receive the same scalar (equal-weight sum),
// making the weight genes irrelevant.
type fixedShim struct{ p *core.OTAProblem }

func (s fixedShim) NumParams() int     { return 8 }
func (s fixedShim) NumObjectives() int { return 2 }
func (s fixedShim) Maximize() []bool   { return []bool{true, true} }
func (s fixedShim) Evaluate(g []float64) ([]float64, error) {
	objs, err := s.p.Evaluate(g, nil)
	if err != nil {
		return nil, err
	}
	// Equal-weight scalarisation applied to both slots: selection
	// pressure is identical for any weight vector, i.e. fixed weights.
	sum := 0.5*objs[0] + 0.5*objs[1]
	return []float64{sum, sum}, nil
}

func frontSpread(r *wbga.Result) [2]float64 {
	var lo0, hi0, lo1, hi1 float64
	lo0, lo1 = math.Inf(1), math.Inf(1)
	hi0, hi1 = math.Inf(-1), math.Inf(-1)
	for _, i := range r.FrontIdx {
		o := r.Evals[i].Objectives
		lo0 = math.Min(lo0, o[0])
		hi0 = math.Max(hi0, o[0])
		lo1 = math.Min(lo1, o[1])
		hi1 = math.Max(hi1, o[1])
	}
	return [2]float64{hi0 - lo0, hi1 - lo1}
}

// ---- ablation: MC sample count -------------------------------------------------

func BenchmarkAblation_MCSampleCount(b *testing.B) {
	printTable("ablation: variation estimate vs MC sample count", func() {
		prob := core.NewOTAProblem()
		genes := make([]float64, 8)
		for j := range genes {
			genes[j] = 0.5
		}
		proc := process.C35()
		ref := deltaEstimate(prob, proc, genes, 800, 1)
		fmt.Printf("  reference dGain (800 samples): %.4f%%\n", ref)
		for _, n := range []int{25, 50, 100, 200, 400} {
			est := deltaEstimate(prob, proc, genes, n, 2)
			fmt.Printf("  n=%4d: dGain %.4f%% (error vs reference %+.4f)\n", n, est, est-ref)
		}
		fmt.Println("  (the paper picks 200 samples per Pareto point)")
	})
	prob := core.NewOTAProblem()
	proc := process.C35()
	genes := make([]float64, 8)
	for j := range genes {
		genes[j] = 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Evaluate(genes, proc.NewSample(3, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func deltaEstimate(prob *core.OTAProblem, proc *process.Process, genes []float64, n int, seed int64) float64 {
	var gains []float64
	for i := 0; i < n; i++ {
		objs, err := prob.Evaluate(genes, proc.NewSample(seed, i))
		if err != nil {
			continue
		}
		gains = append(gains, objs[0])
	}
	mean := 0.0
	for _, g := range gains {
		mean += g
	}
	mean /= float64(len(gains))
	ss := 0.0
	for _, g := range gains {
		ss += (g - mean) * (g - mean)
	}
	sigma := math.Sqrt(ss / float64(len(gains)-1))
	return 100 * 3 * sigma / mean
}

// ---- §4.4: Monte Carlo yield verification of the selected design --------------

func BenchmarkSec44_YieldVerification(b *testing.B) {
	m, d, spec0, spec1 := sharedDesign(b)
	_ = m
	prob := core.NewOTAProblem()
	genes, err := prob.GenesForDesign(d)
	if err != nil {
		b.Fatal(err)
	}
	samples := 100
	if paperScale() {
		samples = 500 // the paper's verification budget
	}
	ver, err := core.VerifyDesignYield(context.Background(), prob, process.C35(), genes, spec0, spec1, samples, 21)
	if err != nil {
		b.Fatal(err)
	}
	printTable("§4.4: MC yield verification of the yield-targeted design", func() {
		fmt.Printf("  specs: %s, %s\n", spec0, spec1)
		fmt.Printf("  design simulated with %d MC samples -> yield %.1f%% (paper: 100%% at 500)\n",
			ver.Samples, 100*ver.Yield)
		for _, st := range ver.Stats {
			fmt.Printf("  %-8s mean %.3f sigma %.4f (delta %.2f%%)\n",
				st.Name, st.Mean, st.Sigma, st.DeltaPct)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Evaluate(genes, process.C35().NewSample(5, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- variance reduction: naive vs importance-sampled yield MC ------------------

// BenchmarkMCNaiveVsIS times a variance-reduced yield estimate of the
// OTA at a 99.9%-yield gain spec — a bound naive 200-sample MC cannot
// resolve (it sees 0.2 failures on average). Each sub-benchmark reports:
//
//	naive_evals_ratio — circuit evaluations a naive binomial estimator
//	  would need for the same yield-estimate variance, divided by the
//	  evaluations the strategy actually simulated (≥ 1 means the
//	  strategy wins; the headline claim is ≥ 10)
//	ess       — effective sample size of the weighted estimate
//	yield_pct — the estimated yield
func BenchmarkMCNaiveVsIS(b *testing.B) {
	prob := core.NewOTAProblem()
	proc := process.C35()
	genes := make([]float64, 8)
	for j := range genes {
		genes[j] = 0.5
	}
	eval := func(_ int, s *process.Sample) ([]float64, error) { return prob.Evaluate(genes, s) }
	metrics := []string{"gain_db", "pm_deg"}

	// Pilot: establish the gain distribution at the design and aim the
	// proposal. The spec bound sits 3.09σ below the mean (Φ ≈ 0.999);
	// the mean shift points along the regression of gain on the global
	// variation, i.e. toward the failure region.
	const pilotN = 256
	pilot, err := runPointMC(montecarlo.Plan{
		Proc: proc, Points: []montecarlo.PointSpec{{Seed: 31, Samples: pilotN}}, Metrics: metrics,
	}, eval)
	if err != nil {
		b.Fatal(err)
	}
	const z999 = 3.0902323061678132 // Φ(z) = 0.999
	bound := pilot.Stats[0].Mean - z999*pilot.Stats[0].Sigma
	prop := pilotProposal(proc, pilot, z999)

	printTable("variance reduction: naive vs importance-sampled yield MC", func() {
		naive, nerr := runPointMC(montecarlo.Plan{
			Proc: proc, Points: []montecarlo.PointSpec{{Seed: 57, Samples: 200}}, Metrics: metrics,
		}, eval)
		if nerr != nil {
			fmt.Println("  error:", nerr)
			return
		}
		fails := 0
		for _, row := range naive.Samples {
			if row != nil && row[0] < bound {
				fails++
			}
		}
		fmt.Printf("  spec: gain >= %.3f dB (pilot mean - 3.09 sigma, true yield ~99.9%%)\n", bound)
		fmt.Printf("  naive 200 samples: %d failures seen -> yield %.2f%% (cannot resolve 0.1%%)\n",
			fails, 100*(1-float64(fails)/200))
	})

	const isSamples = 800
	for _, strategy := range []montecarlo.Strategy{montecarlo.StrategyIS, montecarlo.StrategyISSurrogate} {
		b.Run(strategy.String(), func(b *testing.B) {
			var ratio, ess, yhat float64
			for i := 0; i < b.N; i++ {
				mc, rerr := runPointMC(montecarlo.Plan{
					Proc:    proc,
					Points:  []montecarlo.PointSpec{{Seed: int64(37 + i), Samples: isSamples}},
					Metrics: metrics,
					Variance: montecarlo.VarianceOptions{
						Strategy: strategy,
						Proposal: prop,
						Specs:    []montecarlo.SpecBound{{Col: 0, Bound: bound}},
					},
				}, eval)
				if rerr != nil {
					b.Fatal(rerr)
				}
				y, varIS := weightedYieldVariance(mc.Samples, mc.Weights, bound)
				if varIS > 0 {
					yhat, ess = y, mc.ESS
					// Naive samples for the same variance: p(1-p)/Var, per
					// circuit evaluation the strategy actually spent.
					ratio = y * (1 - y) / varIS / float64(mc.FullEvals)
				}
			}
			b.ReportMetric(ratio, "naive_evals_ratio")
			b.ReportMetric(ess, "ess")
			b.ReportMetric(100*yhat, "yield_pct")
		})
	}
}

// runPointMC runs a one-point plan through a shared, stateless
// evaluator and returns the point's result.
func runPointMC(plan montecarlo.Plan, eval montecarlo.PointEvaluator) (*montecarlo.Result, error) {
	var out *montecarlo.Result
	err := montecarlo.Run(context.Background(), plan, func() montecarlo.PointEvaluator { return eval },
		func(_ int, res *montecarlo.Result, err error) error {
			out = res
			return err
		})
	return out, err
}

// pilotProposal aims a defensive mean-shifted mixture at the low-gain
// failure region. The direction is the regression of gain on the four
// global variation coordinates (negated, i.e. downhill); the magnitude
// places the proposal centre on the failure boundary: the bound sits z
// total-sigmas below the mean, but moving one sigma-unit along the unit
// regression direction only moves gain by the explained fraction of its
// sigma, so the boundary lies at z/rho sigma-units (rho² = variance
// explained by the globals). A wide centred component keeps the weights
// bounded where the linear model is wrong.
func pilotProposal(proc *process.Process, pilot *montecarlo.Result, z float64) *process.Proposal {
	var beta [4]float64
	var mg float64
	var n int
	for _, row := range pilot.Samples {
		if row == nil {
			continue
		}
		mg += row[0]
		n++
	}
	if n == 0 {
		return process.DefaultISProposal()
	}
	mg /= float64(n)
	for i, row := range pilot.Samples {
		if row == nil {
			continue
		}
		u := proc.NewSample(31, i).GlobalSigmaUnits()
		for k := range beta {
			// E[u]=0 and Var[u_k]=1, so this accumulates cov(u_k, gain),
			// which is the regression slope per sigma-unit.
			beta[k] += u[k] * (row[0] - mg) / float64(n)
		}
	}
	explained := 0.0
	for _, bk := range beta {
		explained += bk * bk
	}
	explained = math.Sqrt(explained) // gain sigma per sigma-unit along the direction
	if explained == 0 || pilot.Stats[0].Sigma == 0 {
		return process.DefaultISProposal()
	}
	shift := z * pilot.Stats[0].Sigma / explained
	if shift > 6 { // a pilot fluke must not launch the proposal into nowhere
		shift = 6
	}
	var mean [4]float64
	for k := range mean {
		mean[k] = -shift * beta[k] / explained
	}
	return &process.Proposal{Components: []process.ProposalComponent{
		{Weight: 0.3, Scale: 1.5},
		{Weight: 0.7, Mean: mean, Scale: 1},
	}}
}

// weightedYieldVariance is the self-normalised IS yield estimate of the
// gain spec and its delta-method variance; nil weights reduce it to the
// naive estimator with binomial variance.
func weightedYieldVariance(samples [][]float64, weights []float64, bound float64) (float64, float64) {
	var sw, swPass float64
	for i, row := range samples {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		sw += w
		if row != nil && row[0] >= bound {
			swPass += w
		}
	}
	if sw == 0 {
		return 0, 0
	}
	y := swPass / sw
	var v float64
	for i, row := range samples {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		pass := 0.0
		if row != nil && row[0] >= bound {
			pass = 1
		}
		v += w * w * (pass - y) * (pass - y)
	}
	return y, v / (sw * sw)
}

// ---- extension: two-pole behavioural model (paper's "higher order effects") ---

func BenchmarkExtension_TwoPoleModel(b *testing.B) {
	cfg := ota.DefaultConfig()
	params := ota.NominalParams()
	perf, err := cfg.Evaluate(params, nil)
	if err != nil {
		b.Fatal(err)
	}
	freqs, tf, err := cfg.Response(params, nil, 8)
	if err != nil {
		b.Fatal(err)
	}
	_, _, f2 := behave.FitTwoPole(perf, cfg.CLoad)
	printTable("extension: one-pole vs two-pole behavioural model (Fig 8 fit)", func() {
		a0 := perf.GainDB
		fdom := perf.UnityHz / math.Pow(10, a0/20)
		fmt.Printf("  fitted second pole f2 = %.4g Hz (PM %.2f deg at fu %.4g Hz)\n",
			f2, perf.PMDeg, perf.UnityHz)
		fmt.Printf("  %-12s %-12s %-12s %-12s\n", "freq_hz", "transistor", "one-pole", "two-pole")
		var e1, e2 float64
		n := 0
		for i := 0; i < len(freqs); i++ {
			f := freqs[i]
			meas := measure.GainDB(tf[i])
			one := a0 - 10*math.Log10(1+(f/fdom)*(f/fdom))
			two := one
			if f2 > 0 {
				two -= 10 * math.Log10(1+(f/f2)*(f/f2))
			}
			if f >= perf.UnityHz {
				e1 += math.Abs(one - meas)
				e2 += math.Abs(two - meas)
				n++
			}
			if i%5 == 0 {
				fmt.Printf("  %-12.4g %-12.2f %-12.2f %-12.2f\n", f, meas, one, two)
			}
		}
		if n > 0 {
			fmt.Printf("  mean |error| beyond fu: one-pole %.2f dB, two-pole %.2f dB\n",
				e1/float64(n), e2/float64(n))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, f := behave.FitTwoPole(perf, cfg.CLoad); f < 0 {
			b.Fatal("bad fit")
		}
	}
}

// ---- extension: process-corner analysis of the selected design ----------------

func BenchmarkExtension_CornerAnalysis(b *testing.B) {
	_, d, _, _ := sharedDesign(b)
	prob := core.NewOTAProblem()
	genes, err := prob.GenesForDesign(d)
	if err != nil {
		b.Fatal(err)
	}
	proc := process.C35()
	results := core.CornerAnalysis(prob, proc, genes, 3)
	printTable("extension: selected design across process corners (3 sigma)", func() {
		fmt.Printf("  %-8s %-10s %-10s\n", "corner", "gain_db", "pm_deg")
		for _, r := range results {
			if r.Err != nil {
				fmt.Printf("  %-8s failed: %v\n", r.Corner, r.Err)
				continue
			}
			fmt.Printf("  %-8s %-10.2f %-10.2f\n", r.Corner, r.Objectives[0], r.Objectives[1])
		}
		fmt.Printf("  guard-banded targets were gain %.2f dB, pm %.2f deg\n",
			d.Target[0], d.Target[1])
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.CornerAnalysis(prob, proc, genes, 3)
		if len(r) != 5 {
			b.Fatal("corner analysis incomplete")
		}
	}
}
