// Command otaflow runs the paper's complete model-building flow on the
// symmetrical OTA benchmark: WBGA multi-objective optimisation, Pareto
// front extraction, per-point Monte Carlo variation analysis, table
// model construction, and Verilog-A emission.
//
// Output artefacts (in -out):
//
//	front.tbl        combined performance/variation/parameter table
//	gain_delta.tbl   gain → ΔGain% ($table_model data)
//	pm_delta.tbl     PM → ΔPM%
//	lp1..lp8.tbl     (gain, PM) → designable parameter
//	ota_behav.va     the generated Verilog-A behavioural module
//
// The defaults reproduce the paper's budgets (100 generations × 100
// individuals = 10,000 evaluations; 200 MC samples per Pareto point);
// use -pop/-gen/-mc for quicker runs.
//
// Long runs are interruptible: SIGINT (Ctrl-C) cancels the flow
// gracefully, a checkpoint is written (-checkpoint, default
// <out>/flow.ckpt), and re-running the same command resumes where the
// run left off with bit-identical final results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"analogyield/internal/behave"
	"analogyield/internal/core"
	"analogyield/internal/process"
)

func main() {
	var (
		out       = flag.String("out", "otaflow-out", "output directory for model artefacts")
		pop       = flag.Int("pop", 100, "GA population size")
		gen       = flag.Int("gen", 100, "GA generations")
		mc        = flag.Int("mc", 200, "Monte Carlo samples per Pareto point")
		seed      = flag.Int64("seed", 1, "RNG seed")
		knots     = flag.Int("knots", 200, "max table knots after thinning")
		ckpt      = flag.String("checkpoint", "", "checkpoint file for resume (default <out>/flow.ckpt; \"none\" disables)")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint cadence in MC points (0 = default 16, negative = MOO only)")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	ckptPath := *ckpt
	switch ckptPath {
	case "":
		ckptPath = filepath.Join(*out, "flow.ckpt")
	case "none":
		ckptPath = ""
	}

	cfg := core.FlowConfig{
		Problem:         core.NewOTAProblem(),
		Proc:            process.C35(),
		PopSize:         *pop,
		Generations:     *gen,
		MCSamples:       *mc,
		Seed:            *seed,
		Model:           core.ModelOptions{MaxTablePoints: *knots},
		Checkpoint:      ckptPath,
		CheckpointEvery: *ckptEvery,
	}
	if !*quiet {
		cfg.Obs = progressObserver()
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "otaflow:", err)
		os.Exit(2)
	}

	// SIGINT cancels the flow cooperatively: the current generation or
	// MC point finishes, a checkpoint is written, and RunFlow returns
	// ctx.Err() with the partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	t0 := time.Now()
	res, err := core.RunFlow(ctx, cfg)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if errors.Is(err, context.Canceled) {
		summary(res, t0)
		fmt.Fprintln(os.Stderr, "otaflow: interrupted")
		if ckptPath != "" {
			fmt.Fprintf(os.Stderr, "otaflow: checkpoint saved to %s; re-run the same command to resume\n", ckptPath)
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "otaflow:", err)
		os.Exit(1)
	}

	if err := res.Model.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "otaflow:", err)
		os.Exit(1)
	}
	va := behave.GenerateVerilogA(res.Model, behave.VAOptions{})
	if err := os.WriteFile(filepath.Join(*out, "ota_behav.va"), []byte(va), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "otaflow:", err)
		os.Exit(1)
	}

	summary(res, t0)

	// Table 2-style excerpt.
	pts := res.Model.Points
	fmt.Printf("\nPerformance and variation values (paper Table 2 excerpt):\n")
	fmt.Printf("  %-8s %-10s %-8s %-8s\n", "Gain(dB)", "dGain(%)", "PM(deg)", "dPM(%)")
	step := len(pts)/10 + 1
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		fmt.Printf("  %-8.2f %-10.3f %-8.2f %-8.3f\n",
			p.Perf[0], p.DeltaPct[0], p.Perf[1], p.DeltaPct[1])
	}
	fmt.Printf("\nModel written to %s\n", *out)
}

// progressObserver renders the typed event stream as terse stderr
// progress: one line per stage transition plus in-place percentage
// updates inside the long stages.
func progressObserver() core.Observer {
	lastPct := -1
	pct := func(stage core.Stage, done, total int) {
		if total <= 0 {
			return
		}
		p := done * 100 / total
		if p/5 != lastPct/5 {
			fmt.Fprintf(os.Stderr, "\r%s: %3d%% (%d/%d)      ", stage, p, done, total)
			lastPct = p
		}
	}
	return core.ObserverFunc(func(e core.Event) {
		switch ev := e.(type) {
		case core.FlowResumed:
			fmt.Fprintf(os.Stderr, "resuming from %s (MOO done, %d MC points recovered)\n",
				ev.Path, ev.MCDone)
		case core.GenerationDone:
			pct(core.StageMOO, ev.Evals, ev.TotalEvals)
		case core.MCPointDone:
			pct(core.StageMC, ev.Index+1, ev.Total)
		case core.PointDropped:
			fmt.Fprintf(os.Stderr, "\nwarning: Pareto point %d dropped: %v\n", ev.Index, ev.Err)
		case core.StageEnd:
			fmt.Fprintf(os.Stderr, "\r%s done in %.1fs                    \n", ev.Stage, ev.Elapsed.Seconds())
			lastPct = -1
		case core.CheckpointSaved:
			fmt.Fprintf(os.Stderr, "\rcheckpoint: %s (%d MC points)      \n", ev.Path, ev.MCDone)
		}
	})
}

// summary prints the Table 5-style design parameter summary plus the
// flow metrics snapshot.
func summary(res *core.FlowResult, t0 time.Time) {
	if res == nil {
		return
	}
	m := res.Metrics
	fmt.Printf("Design parameter summary (paper Table 5):\n")
	fmt.Printf("  Evaluation samples: %d\n", res.Evaluations)
	fmt.Printf("  Pareto points:      %d\n", len(res.FrontIdx))
	fmt.Printf("  MC simulations:     %d\n", res.MCSimulations)
	if res.DroppedPoints > 0 {
		fmt.Printf("  Dropped points:     %d\n", res.DroppedPoints)
	}
	if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		fmt.Printf("  Genome cache:       %d hits / %d misses (%.1f%% hit rate, %d simulations skipped)\n",
			res.CacheHits, res.CacheMisses,
			100*float64(res.CacheHits)/float64(lookups), res.CacheHits)
	}
	fmt.Printf("  Solver failures:    %d\n", m.SolverFailures)
	fmt.Printf("  CPU time:           %.1fs (MOO %.1fs, MC %.1fs, tables %.3fs)\n",
		time.Since(t0).Seconds(), res.Timing.MOO.Seconds(),
		res.Timing.MC.Seconds(), res.Timing.Tables.Seconds())
}
