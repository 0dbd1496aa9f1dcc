package core

import "time"

// Stage identifies one stage of the flow for event reporting. The flow's
// own stages are StageMOO, StageMC and StageTables; other pipelines
// reusing the Observer machinery (e.g. the filter capacitor MOO) may
// define their own Stage values.
type Stage string

const (
	// StageMOO is the WBGA multi-objective optimisation (paper Fig 3
	// steps 1-2).
	StageMOO Stage = "moo"
	// StageMC is the per-Pareto-point Monte Carlo variation analysis
	// (steps 3-4).
	StageMC Stage = "mc"
	// StageTables is the table-model construction (step 5).
	StageTables Stage = "tables"
)

// Event is one structured progress notification from a flow. The
// concrete types are StageStart, StageEnd, GenerationDone, MCPointDone,
// PointDropped, CheckpointSaved and FlowResumed. Events are delivered
// sequentially from the goroutine running the flow, in causal order; an
// Observer therefore needs no internal locking against the flow itself.
type Event interface{ flowEvent() }

// StageStart announces that a stage is beginning. Total is the stage's
// work budget in stage units: objective evaluations for StageMOO, Pareto
// points for StageMC, zero for StageTables.
type StageStart struct {
	Stage Stage
	Total int
}

// StageEnd closes a stage with its wall-clock duration.
type StageEnd struct {
	Stage   Stage
	Elapsed time.Duration
}

// GenerationDone reports one completed WBGA generation: the 1-based
// generation number, the cumulative evaluation count against the total
// budget, the best eq. 5 fitness of the generation, and the cumulative
// genome-cache counters.
type GenerationDone struct {
	Gen         int
	Generations int
	Evals       int
	TotalEvals  int
	BestFitness float64
	CacheHits   int
	CacheMisses int
}

// MCPointDone reports the Monte Carlo analysis of one Pareto point.
// Index is the 0-based position along the front (of Total points),
// Failures counts samples that failed to simulate, and Resumed marks
// points replayed from a checkpoint rather than re-simulated.
type MCPointDone struct {
	Index    int
	Total    int
	Perf     [2]float64
	DeltaPct [2]float64
	Failures int
	Resumed  bool
}

// PointDropped reports a Pareto point whose Monte Carlo analysis failed
// entirely; the point is excluded from the model and counted in
// FlowResult.DroppedPoints.
type PointDropped struct {
	Index int
	Err   error
}

// CheckpointSaved reports a successfully written checkpoint. Path is
// the file's path when the flow checkpoints to FlowConfig.Checkpoint,
// empty for a CheckpointStore. MCDone is the number of Monte Carlo
// points (completed or dropped) recorded in it; zero means the
// checkpoint holds only the finished MOO stage.
type CheckpointSaved struct {
	Path   string
	MCDone int
}

// FlowResumed reports that RunFlow recovered prior work from a
// checkpoint instead of recomputing it: the MOO stage plus MCDone Monte
// Carlo points. Path is set as in CheckpointSaved.
type FlowResumed struct {
	Path   string
	MCDone int
}

func (StageStart) flowEvent()      {}
func (StageEnd) flowEvent()        {}
func (GenerationDone) flowEvent()  {}
func (MCPointDone) flowEvent()     {}
func (PointDropped) flowEvent()    {}
func (CheckpointSaved) flowEvent() {}
func (FlowResumed) flowEvent()     {}

// Observer receives a flow's typed event stream. Observe is called
// synchronously from the flow goroutine: implementations should return
// quickly (hand expensive work to a channel) and must not call back into
// the running flow.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(e).
func (f ObserverFunc) Observe(e Event) { f(e) }

// MultiObserver fans one event stream out to several observers, invoked
// in order.
func MultiObserver(obs ...Observer) Observer {
	out := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

type multiObserver []Observer

func (m multiObserver) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}
