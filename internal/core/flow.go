package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"time"

	"analogyield/internal/analysis"
	"analogyield/internal/montecarlo"
	"analogyield/internal/process"
	"analogyield/internal/wbga"
)

// FlowConfig configures a full model-building run. The paper's budgets
// are PopSize=100, Generations=100 (10,000 evaluations) and
// MCSamples=200 per Pareto point; zero values select those defaults,
// negative values are rejected by Validate.
type FlowConfig struct {
	Problem CircuitProblem   // required
	Proc    *process.Process // required (variation model)

	PopSize     int // 0 → 100
	Generations int // 0 → 100
	MCSamples   int // 0 → 200
	Seed        int64
	Workers     int // parallelism for MOO and MC (0 → GOMAXPROCS)

	Model ModelOptions

	// MaxDroppedFraction bounds the tolerated fraction of Pareto points
	// whose Monte Carlo analysis fails entirely. Dropped points are
	// excluded from the model and counted in FlowResult.DroppedPoints;
	// once more than this fraction of the front is lost the flow fails
	// instead of silently building a model from the remainder.
	// 0 selects the default 0.25; values >= 1 tolerate any loss.
	MaxDroppedFraction float64

	// Checkpoint, when non-empty, is the path of the resume file: the
	// flow checkpoints after the MOO stage and after every
	// CheckpointEvery Monte Carlo points, and a later RunFlow with the
	// same deterministic configuration (problem shape, budgets, seed)
	// resumes from it, producing results bit-identical to an
	// uninterrupted run. The file is removed when the flow completes.
	Checkpoint string
	// CheckpointStore, when non-nil, keeps the same resume state
	// somewhere other than a file. At most one of Checkpoint and
	// CheckpointStore may be set.
	CheckpointStore CheckpointStore
	// CheckpointEvery is the Monte Carlo checkpoint cadence in points
	// (0 → 16; negative checkpoints only after the MOO stage and on
	// cancellation).
	CheckpointEvery int

	// Obs, when non-nil, receives the flow's typed event stream (see
	// Event). Events are delivered synchronously from the flow
	// goroutine.
	Obs Observer

	// Metrics, when non-nil, is updated in place as the flow runs, so a
	// long-lived caller (the ayd server's /metrics) can export one
	// registry across many flows. A nil Metrics uses a private registry;
	// either way FlowResult.Metrics carries the end-of-run snapshot.
	Metrics *Metrics
}

// ErrMCStrategy refuses a Monte Carlo strategy other than plain Monte
// Carlo for a flow. The flow estimates each point's Δ%, a moment, which
// importance sampling and the surrogate filter never sharpened; they
// stay for yield verification (VerifyDesignYieldMC).
var ErrMCStrategy = errors.New(`core: flows run plain Monte Carlo; the Monte Carlo strategy must be "" or "naive"`)

// CheckFlowMCStrategy accepts the strategy names a flow request may
// still carry, "" and "naive", and refuses any other with
// ErrMCStrategy, so that such a request fails instead of quietly
// running naive.
func CheckFlowMCStrategy(name string) error {
	if s, err := montecarlo.ParseStrategy(name); err != nil || s != montecarlo.StrategyNaive {
		return fmt.Errorf("%w, got %q", ErrMCStrategy, name)
	}
	return nil
}

// ErrPopSize rejects a negative PopSize or a population of one, which
// the WBGA cannot breed from.
var ErrPopSize = errors.New("core: PopSize must be 0 (the default 100) or at least 2")

// Validate checks the configuration for nonsensical values, returning an
// explicit error instead of silently substituting defaults. Zero values
// for PopSize/Generations/MCSamples/Workers/MaxDroppedFraction/
// CheckpointEvery remain valid and select the documented paper defaults.
func (c FlowConfig) Validate() error {
	if c.Problem == nil {
		return fmt.Errorf("core: nil problem")
	}
	if c.Proc == nil {
		return fmt.Errorf("core: nil process")
	}
	if len(c.Problem.ObjectiveNames()) != 2 {
		return fmt.Errorf("core: the table model requires exactly 2 objectives, problem has %d",
			len(c.Problem.ObjectiveNames()))
	}
	if c.PopSize < 0 || c.PopSize == 1 {
		return fmt.Errorf("%w, got %d", ErrPopSize, c.PopSize)
	}
	if c.Generations < 0 {
		return fmt.Errorf("core: negative Generations %d", c.Generations)
	}
	if c.MCSamples < 0 {
		return fmt.Errorf("core: negative MCSamples %d", c.MCSamples)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", c.Workers)
	}
	if c.MaxDroppedFraction < 0 {
		return fmt.Errorf("core: negative MaxDroppedFraction %g", c.MaxDroppedFraction)
	}
	if c.Checkpoint != "" && c.CheckpointStore != nil {
		return fmt.Errorf("core: set Checkpoint or CheckpointStore, not both")
	}
	return c.Model.validate()
}

// withDefaults resolves zero-value fields to the paper defaults. It must
// run after Validate so negatives have already been rejected.
func (c FlowConfig) withDefaults() FlowConfig {
	if c.PopSize == 0 {
		c.PopSize = 100
	}
	if c.Generations == 0 {
		c.Generations = 100
	}
	if c.MCSamples == 0 {
		c.MCSamples = 200
	}
	if c.MaxDroppedFraction == 0 {
		c.MaxDroppedFraction = 0.25
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 16
	}
	if c.Checkpoint != "" {
		c.CheckpointStore = checkpointFile(c.Checkpoint)
	}
	return c
}

// Timing records per-stage wall-clock durations (the paper's Table 5
// reports the optimisation CPU time).
type Timing struct {
	MOO    time.Duration
	MC     time.Duration
	Tables time.Duration
}

// FlowResult is the outcome of RunFlow. When RunFlow returns a context
// error the result still carries everything completed before the
// cancellation (partial archive, analysed points, metrics snapshot).
type FlowResult struct {
	// Archive is every MOO evaluation (Fig 7's 10,000-point cloud).
	Archive []wbga.Evaluation
	// FrontIdx indexes the Pareto-optimal archive entries (Fig 7's
	// front; the paper finds 1022 of 10,000).
	FrontIdx []int
	// Points are the MC-annotated Pareto points (Table 2 rows),
	// sorted by performance 0.
	Points []ParetoPoint
	// Model is the combined performance + variation behavioural model.
	Model *Model
	// Evaluations is the MOO simulation count; MCSimulations counts the
	// variation-model simulations.
	Evaluations   int
	MCSimulations int
	// CacheHits and CacheMisses count MOO genome-cache lookups; each hit
	// is one circuit simulation skipped (see wbga.Result).
	CacheHits, CacheMisses int
	// DroppedPoints counts Pareto points excluded from the model because
	// their Monte Carlo analysis failed entirely (see
	// FlowConfig.MaxDroppedFraction).
	DroppedPoints int
	// MCPredicted and MCMeanESS are always 0: the flow's Monte Carlo
	// stage is plain Monte Carlo, so no sample is answered by a
	// surrogate and no importance weight thins the sample. They remain
	// for callers that still read them.
	MCPredicted int
	MCMeanESS   float64
	// Resumed reports that prior work was recovered from a checkpoint.
	Resumed bool
	// Metrics is the end-of-run snapshot of the flow's counter registry.
	Metrics MetricsSnapshot
	Timing  Timing
}

// wbgaAdapter exposes a CircuitProblem (nominal evaluation) as a
// wbga.Problem.
type wbgaAdapter struct {
	p  CircuitProblem
	ws *workspaces
}

func (a wbgaAdapter) NumParams() int     { return len(a.p.ParamNames()) }
func (a wbgaAdapter) NumObjectives() int { return len(a.p.ObjectiveNames()) }
func (a wbgaAdapter) Maximize() []bool   { return a.p.Maximize() }
func (a wbgaAdapter) Evaluate(genes []float64) ([]float64, error) {
	return a.p.Evaluate(genes, nil)
}

// NewEvaluator satisfies wbga.ReusableProblem: problems that accept a
// solver workspace get one long-lived workspace per WBGA worker; plain
// problems fall back to the shared Evaluate.
func (a wbgaAdapter) NewEvaluator() func([]float64) ([]float64, error) {
	we, ok := a.p.(WorkspaceEvaluator)
	if !ok {
		return a.Evaluate
	}
	ws := a.ws.get()
	return func(genes []float64) ([]float64, error) {
		return we.EvaluateWS(genes, nil, ws)
	}
}

// mcFactory builds the per-worker Monte Carlo evaluator for a whole
// run: each worker owns one long-lived solver workspace from pool
// (when the problem supports it) and evaluates any point's genes
// through it as the scheduler moves the worker across points.
func mcFactory(p CircuitProblem, genes [][]float64, pool *workspaces) montecarlo.Factory {
	we, ok := p.(WorkspaceEvaluator)
	if !ok {
		return func() montecarlo.PointEvaluator {
			return func(point int, s *process.Sample) ([]float64, error) {
				return p.Evaluate(genes[point], s)
			}
		}
	}
	return func() montecarlo.PointEvaluator {
		ws := pool.get()
		return func(point int, s *process.Sample) ([]float64, error) {
			return we.EvaluateWS(genes[point], s, ws)
		}
	}
}

// workspaces hands out one solver workspace per worker of a stage and
// afterwards sums their operating-point counters. A nil pool hands out
// untracked workspaces.
type workspaces struct {
	mu  sync.Mutex
	all []*analysis.Workspace
}

func (p *workspaces) get() *analysis.Workspace {
	ws := analysis.NewWorkspace()
	if p != nil {
		p.mu.Lock()
		p.all = append(p.all, ws)
		p.mu.Unlock()
	}
	return ws
}

// stats sums the counters of every workspace handed out. Call it only
// once the stage's workers have returned.
func (p *workspaces) stats() analysis.OPStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum analysis.OPStats
	for _, ws := range p.all {
		sum = sum.Add(ws.Stats())
	}
	return sum
}

// flowRun carries the per-run state shared by RunFlow's stages.
type flowRun struct {
	cfg     FlowConfig
	obs     Observer
	metrics *Metrics
	res     *FlowResult
	ck      *checkpoint
}

func (f *flowRun) emit(e Event) {
	if f.obs != nil {
		f.obs.Observe(e)
	}
}

// save writes the current checkpoint when checkpointing is enabled and
// notifies the observer. Checkpoint write failures are hard errors: a
// caller that asked for resumability must not discover at kill time that
// no checkpoint ever existed.
func (f *flowRun) save() error {
	if f.cfg.CheckpointStore == nil {
		return nil
	}
	err := f.cfg.CheckpointStore.Save(func(w io.Writer) error { return encodeCheckpoint(w, f.ck) })
	if err != nil {
		return err
	}
	f.metrics.checkpoints.Add(1)
	f.emit(CheckpointSaved{Path: f.cfg.Checkpoint, MCDone: len(f.ck.Done)})
	return nil
}

// resume loads the saved checkpoint, if any, and refuses one written
// under another configuration with ErrCheckpointMismatch (and one that
// does not decode with ErrCheckpoint).
func (f *flowRun) resume(fp string) (*checkpoint, error) {
	data, err := f.cfg.CheckpointStore.Load()
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data)
	if err == nil && ck.Fingerprint != fp {
		err = ErrCheckpointMismatch
	}
	if err != nil && f.cfg.Checkpoint != "" {
		return nil, fmt.Errorf("%w; delete %s or change FlowConfig.Checkpoint", err, f.cfg.Checkpoint)
	}
	return ck, err
}

// RunFlow executes the complete paper flow: WBGA optimisation, Pareto
// extraction, per-point Monte Carlo, and table-model construction.
//
// Cancellation is cooperative: ctx is checked once per WBGA generation
// and once per Monte Carlo point (plus before every sample inside a
// point), so cancellation latency is bounded by one generation or one MC
// point. A cancelled flow returns the partial FlowResult alongside
// ctx.Err(); with FlowConfig.Checkpoint or CheckpointStore set the
// partial state is also persisted, and a later RunFlow with the same
// configuration resumes from it with bit-identical final results. A
// saved state from another configuration is refused with an error
// wrapping ErrCheckpointMismatch, and one that does not decode with an
// error wrapping ErrCheckpoint, before any work or flow count.
func RunFlow(ctx context.Context, cfg FlowConfig) (*FlowResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	f := &flowRun{cfg: cfg, obs: cfg.Obs, metrics: cfg.Metrics, res: &FlowResult{}}
	if f.metrics == nil {
		f.metrics = &Metrics{}
	}
	fp := cfg.fingerprint()
	if cfg.CheckpointStore != nil {
		ck, err := f.resume(fp)
		if err != nil {
			return nil, err
		}
		f.ck = ck
	}
	f.metrics.flows.Add(1)
	defer func() { f.res.Metrics = f.metrics.Snapshot() }()

	if f.ck != nil {
		// Resume: the checkpointed MOO stage replaces stages 1-2.
		f.res.Resumed = true
		f.res.Archive = f.ck.Archive
		f.res.FrontIdx = f.ck.FrontIdx
		f.res.Evaluations = f.ck.Evaluations
		f.res.CacheHits = f.ck.CacheHits
		f.res.CacheMisses = f.ck.CacheMisses
		f.emit(FlowResumed{Path: cfg.Checkpoint, MCDone: len(f.ck.Done)})
	} else {
		if err := f.runMOO(ctx); err != nil {
			return f.res, err
		}
		f.ck = &checkpoint{
			Version:     checkpointVersion,
			Fingerprint: fp,
			Archive:     f.res.Archive,
			FrontIdx:    f.res.FrontIdx,
			Evaluations: f.res.Evaluations,
			CacheHits:   f.res.CacheHits,
			CacheMisses: f.res.CacheMisses,
		}
		if err := f.save(); err != nil {
			return f.res, err
		}
	}

	if err := f.runMC(ctx); err != nil {
		return f.res, err
	}
	if err := f.buildTables(); err != nil {
		return f.res, err
	}
	if cfg.CheckpointStore != nil {
		// The flow completed; the checkpoint has served its purpose.
		if err := cfg.CheckpointStore.Clear(); err != nil {
			return f.res, err
		}
	}
	return f.res, nil
}

// runMOO executes stages 1-2 (WBGA optimisation + Pareto extraction).
func (f *flowRun) runMOO(ctx context.Context) error {
	cfg, res := f.cfg, f.res
	totalEvals := cfg.PopSize * cfg.Generations
	t0 := time.Now()
	f.emit(StageStart{Stage: StageMOO, Total: totalEvals})
	pool := &workspaces{}
	defer func() { f.metrics.AddOPStats(pool.stats()) }()
	mooRes, err := wbga.Run(ctx, wbgaAdapter{cfg.Problem, pool}, wbga.Options{
		PopSize:     cfg.PopSize,
		Generations: cfg.Generations,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		OnGeneration: func(gs wbga.GenStats) {
			f.emit(GenerationDone{
				Gen:         gs.Gen,
				Generations: cfg.Generations,
				Evals:       gs.Evals,
				TotalEvals:  totalEvals,
				BestFitness: gs.BestFitness,
				CacheHits:   gs.CacheHits,
				CacheMisses: gs.CacheMisses,
			})
		},
	})
	elapsed := time.Since(t0)
	res.Timing.MOO = elapsed
	f.metrics.addStage(StageMOO, elapsed)
	if mooRes != nil {
		res.Archive = mooRes.Evals
		res.FrontIdx = mooRes.FrontIdx
		res.Evaluations = mooRes.Evaluations
		res.CacheHits = mooRes.CacheHits
		res.CacheMisses = mooRes.CacheMisses
		f.metrics.evaluations.Add(int64(mooRes.Evaluations))
		f.metrics.cacheHits.Add(int64(mooRes.CacheHits))
		f.metrics.cacheMisses.Add(int64(mooRes.CacheMisses))
		for i := range mooRes.Evals {
			if !mooRes.Evals[i].OK {
				f.metrics.solverFailures.Add(1)
			}
		}
	}
	if err != nil {
		return err
	}
	f.emit(StageEnd{Stage: StageMOO, Elapsed: elapsed})
	if len(res.FrontIdx) < 4 {
		return fmt.Errorf("core: Pareto front has only %d points", len(res.FrontIdx))
	}
	return nil
}

// runMC executes stages 3-4: Monte Carlo variation analysis per Pareto
// point, replaying checkpointed points and checkpointing fresh ones.
func (f *flowRun) runMC(ctx context.Context) error {
	cfg, res := f.cfg, f.res
	total := len(res.FrontIdx)
	objNames := cfg.Problem.ObjectiveNames()
	t1 := time.Now()
	f.emit(StageStart{Stage: StageMC, Total: total})
	defer func() {
		elapsed := time.Since(t1)
		res.Timing.MC += elapsed
		f.metrics.addStage(StageMC, elapsed)
	}()

	apply := func(rec mcPointRecord, resumed bool) {
		if rec.Dropped {
			res.DroppedPoints++
			f.emit(PointDropped{Index: rec.FrontPos, Err: errors.New(rec.DropMsg)})
			return
		}
		res.Points = append(res.Points, rec.Point)
		res.MCSimulations += rec.MCSims
		f.emit(MCPointDone{
			Index:    rec.FrontPos,
			Total:    total,
			Perf:     rec.Point.Perf,
			DeltaPct: rec.Point.DeltaPct,
			Failures: rec.Failures,
			Resumed:  resumed,
		})
	}
	for _, rec := range f.ck.Done {
		apply(rec, true)
	}

	// The remaining points run as ONE plan on a persistent worker pool:
	// workers stream sample items across point boundaries instead of
	// draining at each one, and the engine's in-order delivery hands
	// finished points back in front position order — so events,
	// checkpoints and results are bit-identical to the serial per-point
	// loop for any Workers value.
	start := len(f.ck.Done)
	specs := make([]montecarlo.PointSpec, total-start)
	genes := make([][]float64, total-start)
	for i := range specs {
		pos := start + i
		genes[i] = res.Archive[res.FrontIdx[pos]].ParamGenes
		specs[i] = montecarlo.PointSpec{
			Seed:    cfg.Seed + int64(pos)*1000003,
			Samples: cfg.MCSamples,
		}
	}
	plan := montecarlo.Plan{
		Proc:    cfg.Proc,
		Points:  specs,
		Workers: cfg.Workers,
		Metrics: objNames,
		Gauges:  f.metrics,
	}
	pool := &workspaces{}
	defer func() { f.metrics.AddOPStats(pool.stats()) }()
	deliver := func(point int, mcRes *montecarlo.Result, merr error) error {
		pos := start + point
		rec := mcPointRecord{FrontPos: pos}
		if merr != nil {
			// The point's MC failed outright: record the drop rather
			// than silently thinning the front.
			rec.Dropped = true
			rec.DropMsg = merr.Error()
			f.metrics.droppedPoints.Add(1)
			f.metrics.mcSimulations.Add(int64(cfg.MCSamples))
			f.metrics.solverFailures.Add(int64(cfg.MCSamples))
		} else {
			ev := res.Archive[res.FrontIdx[pos]]
			phys, derr := cfg.Problem.Denormalize(genes[point])
			if derr != nil {
				return derr
			}
			rec.Point = ParetoPoint{
				Params:   phys,
				Perf:     [2]float64{ev.Objectives[0], ev.Objectives[1]},
				DeltaPct: [2]float64{mcRes.Stats[0].DeltaPct, mcRes.Stats[1].DeltaPct},
			}
			rec.MCSims = cfg.MCSamples
			rec.Failures = mcRes.Failed
			f.metrics.mcSimulations.Add(int64(rec.MCSims))
			f.metrics.solverFailures.Add(int64(mcRes.Failed))
		}
		f.ck.Done = append(f.ck.Done, rec)
		apply(rec, false)
		if cfg.CheckpointEvery > 0 && len(f.ck.Done)%cfg.CheckpointEvery == 0 && pos != total-1 {
			return f.save()
		}
		return nil
	}

	if err := montecarlo.Run(ctx, plan, mcFactory(cfg.Problem, genes, pool), deliver); err != nil {
		// On cancellation the scheduler has delivered a prefix of completed
		// points, so the checkpoint written here resumes exactly where
		// delivery stopped.
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			if serr := f.save(); serr != nil {
				return serr
			}
			return cerr
		}
		return err
	}

	if res.DroppedPoints > 0 {
		frac := float64(res.DroppedPoints) / float64(total)
		if frac > cfg.MaxDroppedFraction {
			return fmt.Errorf("core: Monte Carlo dropped %d of %d Pareto points (%.0f%%, budget %.0f%%)",
				res.DroppedPoints, total, 100*frac, 100*cfg.MaxDroppedFraction)
		}
	}
	f.emit(StageEnd{Stage: StageMC, Elapsed: time.Since(t1)})
	return nil
}

// buildTables executes stage 5: table-model construction.
func (f *flowRun) buildTables() error {
	cfg, res := f.cfg, f.res
	t2 := time.Now()
	f.emit(StageStart{Stage: StageTables})
	model, err := BuildModel(res.Points, cfg.Problem.ObjectiveNames(),
		cfg.Problem.ParamNames(), cfg.Problem.ParamUnits(), cfg.Model)
	elapsed := time.Since(t2)
	res.Timing.Tables = elapsed
	f.metrics.addStage(StageTables, elapsed)
	if err != nil {
		return err
	}
	res.Model = model
	f.emit(StageEnd{Stage: StageTables, Elapsed: elapsed})
	return nil
}
