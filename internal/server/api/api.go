// Package api defines the JSON wire types of the ayd service: yield
// queries against built behavioural models, flow-job submission and
// status, and the typed event stream rendered over SSE. The server
// (internal/server) and the Go client (internal/server/client) share
// these types so the two sides cannot drift.
package api

import (
	"fmt"
	"time"

	"analogyield/internal/yield"
)

// DefaultTenant is the namespace addressed by requests that carry no
// tenant (and by the pre-tenancy /v1 routes). It matches
// store.DefaultTenant; the server asserts the two stay equal.
const DefaultTenant = "default"

// TenantRef addresses a model in the multi-tenant catalog. Tenant ""
// means DefaultTenant, so every pre-tenancy request body keeps its
// meaning; Version "" means the latest installed version of the name.
// Version strings are content addresses (sha256 of the model's
// canonical payload), so a pinned version can never silently change.
type TenantRef struct {
	Tenant  string `json:"tenant,omitempty"`
	Model   string `json:"model,omitempty"`
	Version string `json:"model_version,omitempty"`
}

// TenantOrDefault resolves the wire tenant to its effective namespace.
func (r TenantRef) TenantOrDefault() string {
	if r.Tenant == "" {
		return DefaultTenant
	}
	return r.Tenant
}

// Spec is one performance requirement in wire form; Sense is ">=" or
// "<=" (default ">=", matching the paper's gain/PM bounds).
type Spec struct {
	Name  string  `json:"name"`
	Sense string  `json:"sense,omitempty"`
	Bound float64 `json:"bound"`
}

// ToYield converts the wire spec to the arithmetic type.
func (s Spec) ToYield() (yield.Spec, error) {
	out := yield.Spec{Name: s.Name, Bound: s.Bound}
	switch s.Sense {
	case "", ">=", "min", "at_least":
		out.Sense = yield.AtLeast
	case "<=", "max", "at_most":
		out.Sense = yield.AtMost
	default:
		return out, fmt.Errorf("api: bad sense %q (want \">=\" or \"<=\")", s.Sense)
	}
	return out, nil
}

// QueryRequest asks a model for a yield-targeted design: the paper's
// Table 3 flow (guard-band each spec by the interpolated Δ%, project
// onto the front, interpolate the designable parameters). The embedded
// TenantRef names the model (absent tenant ⇒ "default", absent version
// ⇒ latest). GuardScale widens (>1) or narrows (<1) the ±3σ guard
// band; 0 means 1.
type QueryRequest struct {
	TenantRef
	Specs      [2]Spec `json:"specs"`
	GuardScale float64 `json:"guard_scale,omitempty"`
}

// Param is one interpolated designable parameter.
type Param struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// QueryResponse is a solved yield query. Tenant is present only for
// non-default tenants, so default-tenant responses are byte-identical
// to the pre-tenancy wire format.
type QueryResponse struct {
	Model  string `json:"model"`
	Tenant string `json:"tenant,omitempty"`
	// Targets are the guard-banded performance targets (Table 3).
	Targets [2]float64 `json:"targets"`
	// DeltaPct is the interpolated variation Δ% at each spec bound.
	DeltaPct [2]float64 `json:"delta_pct"`
	// FrontPerf is the nominal performance of the selected front point.
	FrontPerf [2]float64 `json:"front_perf"`
	// Params are the interpolated designable parameters.
	Params []Param `json:"params"`
	// PredictedYield is the model-only yield estimate at the selected
	// design: the joint normal tail probability of both specs given the
	// front point's nominal performance and Δ% (no simulation).
	PredictedYield float64 `json:"predicted_yield"`
	// CurveParam is the design's position along the front (0..1).
	CurveParam float64 `json:"curve_param"`
}

// BatchQueryRequest carries several queries answered in one round trip
// (they are also coalesced into shared model-lock acquisitions
// server-side).
type BatchQueryRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchQueryResponse answers a batch; Results[i] answers Queries[i].
// Exactly one of Results[i].Response / Results[i].Error is set.
type BatchQueryResponse struct {
	Results []QueryResult `json:"results"`
}

// QueryResult is one batched query outcome.
type QueryResult struct {
	Response *QueryResponse `json:"response,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// ModelInfo describes one catalog entry. The embedded TenantRef
// carries the tenant and the content-addressed version of the latest
// installed artefact; Name duplicates TenantRef.Model for pre-tenancy
// readers.
type ModelInfo struct {
	TenantRef
	Name           string     `json:"name"`
	ObjectiveNames []string   `json:"objectives"`
	ParamNames     []string   `json:"params"`
	Points         int        `json:"points"`
	Domain         [2]float64 `json:"domain"`  // modelled range of objective 0
	Domain1        [2]float64 `json:"domain1"` // modelled range of objective 1
	Resident       bool       `json:"resident"`
}

// ModelPoint is one Pareto point of an uploaded model artefact
// (mirrors core.ParetoPoint in wire form).
type ModelPoint struct {
	Perf     [2]float64 `json:"perf"`
	DeltaPct [2]float64 `json:"delta_pct"`
	Params   []float64  `json:"params"`
}

// InstallModelRequest uploads a finished behavioural model — the
// paper's reusable artefact — directly into a tenant's catalog
// (POST /v1/t/{tenant}/models), without running a flow: the server
// rebuilds the tables from the points, persists the canonical payload
// to the store, and makes the model queryable. MaxTablePoints caps the
// knots per table (core.ModelOptions): 0 selects the default cap of
// 200, and 1 to 3 are refused.
type InstallModelRequest struct {
	Name           string       `json:"name"`
	ObjectiveNames []string     `json:"objectives"`
	ParamNames     []string     `json:"params"`
	ParamUnits     []string     `json:"units,omitempty"`
	MaxTablePoints int          `json:"max_table_points,omitempty"`
	Points         []ModelPoint `json:"points"`
}

// FlowRequest submits a model-building flow job. Problem and Process
// name entries in the server's registries (the ayd binary registers
// "ota" and "c35"); zero budgets select the paper defaults, so small
// values must be set explicitly for quick jobs. The embedded TenantRef
// names the catalog entry the finished model is installed under
// (absent tenant ⇒ "default", absent model ⇒ the job id); Version is
// output-only and ignored on submission.
type FlowRequest struct {
	TenantRef
	Problem         string `json:"problem"`
	Process         string `json:"process,omitempty"`
	PopSize         int    `json:"pop_size,omitempty"`
	Generations     int    `json:"generations,omitempty"`
	MCSamples       int    `json:"mc_samples,omitempty"`
	Seed            int64  `json:"seed,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	MaxTablePoints  int    `json:"max_table_points,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	// MCStrategy must be empty or "naive": flows run plain Monte Carlo.
	// Any other value is refused (422), so a request written for an
	// estimator the flow no longer runs fails instead of running naive.
	MCStrategy string `json:"mc_strategy,omitempty"`
}

// Job states. A job moves queued → running → one of the three terminal
// states; cancelled jobs keep a resumable checkpoint.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobSucceeded = "succeeded"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobStatus reports a flow job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Model string `json:"model"`
	// Tenant is the namespace the job's model and checkpoint live in
	// (empty on old records ⇒ "default").
	Tenant   string      `json:"tenant,omitempty"`
	Request  FlowRequest `json:"request"`
	Created  time.Time   `json:"created"`
	Started  time.Time   `json:"started"`
	Finished time.Time   `json:"finished"`
	Error    string      `json:"error,omitempty"`
	// Resumed reports that the run recovered prior work from a
	// checkpoint (a resubmission after cancellation or shutdown).
	Resumed bool `json:"resumed,omitempty"`
	// Progress counters, updated while running.
	Evaluations   int `json:"evaluations"`
	MCSimulations int `json:"mc_simulations"`
	ParetoPoints  int `json:"pareto_points"`
	DroppedPoints int `json:"dropped_points,omitempty"`
}

// Terminal reports whether the state is final.
func Terminal(state string) bool {
	switch state {
	case JobSucceeded, JobFailed, JobCancelled:
		return true
	}
	return false
}

// Event is the wire form of the flow's typed event stream
// (core.Observer events flattened into one tagged struct), plus the
// job-lifecycle markers "job_queued", "job_started" and "job_done" the
// server adds. Seq numbers are per-job, contiguous from 1, so a client
// resuming an SSE stream can deduplicate replayed events.
type Event struct {
	Seq  int       `json:"seq"`
	Type string    `json:"type"`
	Time time.Time `json:"time"`

	Stage       string      `json:"stage,omitempty"`        // stage_start, stage_end
	Total       int         `json:"total,omitempty"`        // stage_start, mc_point
	ElapsedSecs float64     `json:"elapsed_s,omitempty"`    // stage_end
	Gen         int         `json:"gen,omitempty"`          // generation
	Generations int         `json:"generations,omitempty"`  // generation
	Evals       int         `json:"evals,omitempty"`        // generation
	TotalEvals  int         `json:"total_evals,omitempty"`  // generation
	BestFitness float64     `json:"best_fitness,omitempty"` // generation
	Index       int         `json:"index,omitempty"`        // mc_point, point_dropped
	Perf        *[2]float64 `json:"perf,omitempty"`         // mc_point
	DeltaPct    *[2]float64 `json:"delta_pct,omitempty"`    // mc_point
	Failures    int         `json:"failures,omitempty"`     // mc_point
	Resumed     bool        `json:"resumed,omitempty"`      // mc_point, flow_resumed
	Error       string      `json:"error,omitempty"`        // point_dropped, job_done
	MCDone      int         `json:"mc_done,omitempty"`      // checkpoint_saved, flow_resumed
	State       string      `json:"state,omitempty"`        // job_done
}

// Event type tags.
const (
	EventStageStart      = "stage_start"
	EventStageEnd        = "stage_end"
	EventGeneration      = "generation"
	EventMCPoint         = "mc_point"
	EventPointDropped    = "point_dropped"
	EventCheckpointSaved = "checkpoint_saved"
	EventFlowResumed     = "flow_resumed"
	EventJobQueued       = "job_queued"
	EventJobStarted      = "job_started"
	EventJobDone         = "job_done"
)

// Error is the wire form of a request failure. RequestID carries the
// X-Request-ID of the failed request when the middleware produced the
// error (and is filled in from the response header by the Go client),
// so a user-reported failure can be matched to the server's log line.
type Error struct {
	Status    int    `json:"status"`
	Message   string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Error satisfies the error interface so clients can return it
// directly.
func (e *Error) Error() string {
	return fmt.Sprintf("ayd: %s (HTTP %d)", e.Message, e.Status)
}
