// Package montecarlo runs statistical (process + mismatch) sampling of a
// circuit evaluation and reduces the samples to the per-performance
// variation statistics the paper's variation model stores: mean, sigma,
// and the ±3σ half-range Δ% used by the guard-banding arithmetic.
//
// Run is the one entry point. A Plan lists the points to analyse (one
// per Pareto point in the flow, one for a yield check) and the sampling
// strategy. Every point runs its strategy's phases on its own goroutine
// and queues each phase's samples to one worker pool that lives for the
// whole run.
//
// Sampling is deterministic: sample i of a point always draws process
// sample (seed, i), and each sample slot is written by exactly one
// worker, so results are bit-identical for any worker count or item
// size.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"analogyield/internal/process"
)

// PointSpec describes one point of a plan.
type PointSpec struct {
	Seed    int64 // RNG stream identifier for this point
	Samples int   // number of MC samples (required, > 0)
}

// PointEvaluator evaluates one process sample of the point at plan
// position point. It is called from a single goroutine only, so it may
// own reusable scratch state (typically a solver workspace); point
// varies call to call as the worker moves across the plan.
type PointEvaluator func(point int, s *process.Sample) ([]float64, error)

// Factory supplies each worker goroutine with its own PointEvaluator.
// Run calls it once per worker, so an evaluator's workspace lives for
// the whole run.
type Factory func() PointEvaluator

// Gauges receives scheduler occupancy deltas: how many workers are
// evaluating (vs starved), how many work items are queued, and how many
// points have started but not yet been delivered. core.Metrics
// implements it; a nil Gauges is valid and drops the updates.
type Gauges interface {
	AddBusyWorkers(delta int64)
	AddQueueDepth(delta int64)
	AddPointsInFlight(delta int64)
}

type nopGauges struct{}

func (nopGauges) AddBusyWorkers(int64)    {}
func (nopGauges) AddQueueDepth(int64)     {}
func (nopGauges) AddPointsInFlight(int64) {}

// Plan describes one Monte Carlo run.
type Plan struct {
	Proc    *process.Process // required
	Points  []PointSpec
	Workers int      // parallel workers (default: GOMAXPROCS)
	Metrics []string // optional metric column names for reporting
	// Variance selects the sampling strategy; the zero value is naive
	// Monte Carlo.
	Variance VarianceOptions
	Gauges   Gauges // optional scheduler occupancy sink
}

// Stats summarises one metric across the samples that evaluated
// successfully.
type Stats struct {
	Name     string
	Mean     float64
	Sigma    float64 // sample standard deviation
	Min, Max float64
	// DeltaPct is the paper's variation figure: 100·3σ/|mean|, the ±3σ
	// half-range as a percentage of the mean. Table 2's ΔGain/ΔPM
	// columns and Table 3's guard-band arithmetic use this quantity.
	DeltaPct float64
}

// Result is the outcome of one point.
type Result struct {
	// Samples holds one metric vector per successful sample, indexed by
	// sample number; failed samples are nil. Under a surrogate strategy
	// a vector may be the filter's prediction rather than a simulation —
	// Decisions records which.
	Samples [][]float64
	Failed  int
	Stats   []Stats

	// Weights holds the per-sample importance weights p/q of an
	// importance-sampled run; nil for naive sampling (all weights 1).
	Weights []float64
	// ESS is the effective sample size of the successful samples:
	// (Σw)²/Σw², which degrades from the success count as the weights
	// spread. Low ESS means the weighted estimates are noisier than the
	// raw sample count suggests.
	ESS float64
	// FullEvals counts circuit evaluations actually run; Predicted
	// counts samples answered by the surrogate filter instead. For
	// naive and plain IS runs FullEvals equals len(Samples) and
	// Predicted is 0.
	FullEvals int
	Predicted int
	// Decisions is the surrogate filter's per-sample audit log (nil for
	// strategies without the filter), in sample order.
	Decisions []FilterDecision
}

// Run evaluates every point of the plan on one worker pool and calls
// done once per point, in point order, with either the point's Result
// or its error (e.g. every sample failed — the caller decides whether
// that drops the point or aborts). A non-nil error from done aborts the
// run and is returned.
//
// Cancellation is cooperative with one-sample granularity: workers check
// ctx before every sample, so when ctx is cancelled the in-flight
// samples finish, nothing further is evaluated, and Run returns
// ctx.Err(). done is never called after the cancellation is observed
// and never sees a partial point, so a checkpoint built in done records
// exactly the delivered prefix.
func Run(ctx context.Context, plan Plan, factory Factory, done func(point int, res *Result, err error) error) error {
	if err := plan.validate(factory, done); err != nil {
		return err
	}
	n := len(plan.Points)
	if n == 0 {
		return nil
	}
	e := &engine{
		plan:   plan,
		v:      plan.Variance.withDefaults(),
		gauges: plan.Gauges,
	}
	if e.gauges == nil {
		e.gauges = nopGauges{}
	}
	workers := plan.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := 0
	for _, pt := range plan.Points {
		total += pt.Samples
	}
	workers = min(workers, total)
	// Item size trades a workspace's nominal operating-point memo
	// against balance. With several points, a worker re-solves the
	// nominal OP whenever its next item belongs to another point, so
	// items are 32 samples. A single point has one design and nothing
	// to re-solve, so its items are single samples and its phases spread
	// evenly over the pool down to the last sample.
	e.chunk = 32
	if n == 1 {
		e.chunk = 1
	}
	e.phases = make(chan *phase)
	// A small buffer lets a worker pick up its next item without waiting
	// for the feeder to be scheduled.
	e.work = make(chan item, 2*workers)

	// ictx lets a done-callback error stop the run without cancelling
	// the caller's context.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, n)
	errs := make([]error, n)
	completed := make(chan int, n)

	// started counts points whose goroutine was launched; delivered
	// counts points handed to done. Their difference settles the
	// points-in-flight gauge on early exit.
	var started atomic.Int64
	delivered := 0
	defer func() {
		e.gauges.AddPointsInFlight(int64(delivered) - started.Load())
	}()

	// Points start in order, a bounded number at a time: enough that
	// the pool never waits for a point goroutine between phases.
	inflight := workers + 1
	go func() {
		var points sync.WaitGroup
		slots := make(chan struct{}, inflight)
	start:
		for p := range plan.Points {
			select {
			case slots <- struct{}{}:
			case <-ictx.Done():
				break start
			}
			started.Add(1)
			e.gauges.AddPointsInFlight(1)
			points.Add(1)
			go func() {
				defer points.Done()
				res, err := e.point(ictx, p)
				<-slots
				if ictx.Err() != nil {
					return // cancelled mid-point: never deliver a partial point
				}
				results[p], errs[p] = res, err
				completed <- p
			}()
		}
		points.Wait()
		close(e.phases)
	}()
	go e.feed(ictx)

	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			e.worker(ictx, factory())
		}()
	}
	go func() {
		pool.Wait()
		close(completed)
	}()

	// In-order delivery: advance a frontier over the completion set so
	// done sees points 0, 1, 2, … regardless of finish order. completed
	// is buffered for every point, so point goroutines never block on it
	// even after delivery stops.
	isDone := make([]bool, n)
	frontier := 0
	var firstErr error
	for p := range completed {
		isDone[p] = true
		for firstErr == nil && ctx.Err() == nil && frontier < n && isDone[frontier] {
			derr := done(frontier, results[frontier], errs[frontier])
			delivered++
			e.gauges.AddPointsInFlight(-1)
			frontier++
			if derr != nil {
				firstErr = derr
				cancel()
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

func (plan *Plan) validate(factory Factory, done func(int, *Result, error) error) error {
	if plan.Proc == nil {
		return fmt.Errorf("montecarlo: nil process")
	}
	if factory == nil {
		return fmt.Errorf("montecarlo: nil evaluator factory")
	}
	if done == nil {
		return fmt.Errorf("montecarlo: nil done callback")
	}
	for p, pt := range plan.Points {
		if pt.Samples <= 0 {
			return fmt.Errorf("montecarlo: point %d: Samples must be positive, got %d", p, pt.Samples)
		}
	}
	return plan.Variance.validate()
}

// engine is one Run's shared scheduling state.
type engine struct {
	plan   Plan
	v      VarianceOptions // plan.Variance with defaults filled in
	gauges Gauges
	chunk  int // samples per work item
	phases chan *phase
	work   chan item
}

// phase is a batch of one point's samples that the point goroutine
// waits for.
type phase struct {
	idxs []int
	f    func(eval PointEvaluator, i int)
	wg   sync.WaitGroup
}

// item is a slice of one phase's sample indices, evaluated by one
// worker.
type item struct {
	ph   *phase
	idxs []int
}

// run queues a phase's samples on the pool and returns once every one
// has been evaluated, or ctx is done. f evaluates sample i through the
// worker's evaluator.
func (e *engine) run(ctx context.Context, idxs []int, f func(eval PointEvaluator, i int)) {
	if len(idxs) == 0 {
		return
	}
	ph := &phase{idxs: idxs, f: f}
	ph.wg.Add(1) // held by feed until every item is queued
	select {
	case e.phases <- ph:
		ph.wg.Wait()
	case <-ctx.Done():
	}
}

// feed splits each phase into items of e.chunk samples and queues them.
// One phase is queued whole before the next, so a phase's items sit in
// the queue back to back and a worker meets another design at most once
// per item. feed closes the queue once the point goroutines are gone.
func (e *engine) feed(ctx context.Context) {
	defer close(e.work)
	for ph := range e.phases {
		for lo := 0; lo < len(ph.idxs) && ctx.Err() == nil; lo += e.chunk {
			ph.wg.Add(1)
			select {
			case e.work <- item{ph, ph.idxs[lo:min(lo+e.chunk, len(ph.idxs))]}:
				e.gauges.AddQueueDepth(1)
			case <-ctx.Done():
				ph.wg.Done()
			}
		}
		ph.wg.Done()
	}
}

// worker evaluates queued items through its own evaluator until the
// queue closes, checking ctx before every sample.
func (e *engine) worker(ctx context.Context, eval PointEvaluator) {
	for it := range e.work {
		e.gauges.AddQueueDepth(-1)
		e.gauges.AddBusyWorkers(1)
		for _, i := range it.idxs {
			if ctx.Err() != nil {
				break
			}
			it.ph.f(eval, i)
		}
		e.gauges.AddBusyWorkers(-1)
		it.ph.wg.Done()
	}
}

// welford accumulates streaming mean, variance, min and max in one
// pass (Welford's update), so the reduction needs neither a second walk
// over the samples nor a per-metric copy of them.
type welford struct {
	n        float64
	mean, m2 float64
	min, max float64
}

func (w *welford) add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / w.n
	w.m2 += d * (x - w.mean)
}

func (w *welford) stats() Stats {
	sigma := 0.0
	if w.n > 1 {
		sigma = math.Sqrt(w.m2 / (w.n - 1))
	}
	delta := 0.0
	if w.mean != 0 {
		delta = 100 * 3 * sigma / math.Abs(w.mean)
	}
	return Stats{Mean: w.mean, Sigma: sigma, Min: w.min, Max: w.max, DeltaPct: delta}
}

// rowWidth returns the metric count of res's successful samples. Every
// sample failing is an error, and so is a row whose width differs from
// the first row's: a faulty evaluator must not index past a row.
func rowWidth(res *Result) (int, error) {
	width := -1
	for i, s := range res.Samples {
		switch {
		case s == nil:
		case width < 0:
			width = len(s)
		case len(s) != width:
			return 0, fmt.Errorf("montecarlo: sample %d has %d metrics, earlier samples %d", i, len(s), width)
		}
	}
	if width <= 0 {
		return 0, fmt.Errorf("montecarlo: every sample failed (%d of %d)", res.Failed, len(res.Samples))
	}
	return width, nil
}

// finishStats reduces res.Samples to per-metric statistics in res.Stats
// in a single pass, and fills the naive-run values of the estimator
// diagnostics (ESS = success count, FullEvals = sample count).
func finishStats(res *Result, metrics []string) error {
	width, err := rowWidth(res)
	if err != nil {
		return err
	}
	acc := make([]welford, width)
	for _, s := range res.Samples {
		if s == nil {
			continue
		}
		for k := range acc {
			acc[k].add(s[k])
		}
	}
	res.Stats = make([]Stats, width)
	for k := range acc {
		st := acc[k].stats()
		st.Name = metricName(metrics, k)
		res.Stats[k] = st
	}
	res.ESS = acc[0].n
	res.FullEvals = len(res.Samples)
	return nil
}

func metricName(metrics []string, k int) string {
	if k < len(metrics) {
		return metrics[k]
	}
	return fmt.Sprintf("metric%d", k)
}
