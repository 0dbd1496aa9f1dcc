package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/process"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
)

// ProblemFactory builds a fresh CircuitProblem for one flow job.
// Factories run once per submission, so problems need not be reusable
// across jobs.
type ProblemFactory func() core.CircuitProblem

// ProcessFactory builds the statistical process model for one job.
type ProcessFactory func() *process.Process

// eventBuffer bounds the per-job event replay window: SSE subscribers
// replay at most the last eventBuffer events (the generation stream of
// a paper-budget run would otherwise grow without bound).
const eventBuffer = 4096

// ErrUnknownJob reports a status/events request for an id never issued.
var ErrUnknownJob = errors.New("server: unknown job")

// ErrQueueFull reports a submission against a saturated job queue.
var ErrQueueFull = errors.New("server: job queue full")

// flowQueueDepth is how many submitted flows may wait for a worker
// before Submit answers ErrQueueFull.
const flowQueueDepth = 64

// job is one flow submission and its full lifecycle state.
type job struct {
	id     string
	tenant string // effective namespace (never "")
	cfg    core.FlowConfig

	mu       sync.Mutex
	status   api.JobStatus
	events   []api.Event // tail of the stream; seqs are contiguous
	firstSeq int         // seq preceding events[0]: events[i].Seq == firstSeq+1+i
	nextSeq  int
	notify   map[chan struct{}]struct{}
	cancel   context.CancelFunc
	// lease is the job's ownership lease in cluster mode (Token 0 =
	// single-node, no lease). The heartbeat goroutine refreshes it;
	// checkpoint saves and retires read it to fence their writes.
	lease store.Lease

	done chan struct{} // closed when the job reaches a terminal state
}

// leaseHandle returns the job's current lease, reporting whether one is
// held.
func (j *job) leaseHandle() (store.Lease, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lease, j.lease.Token != 0
}

func (j *job) setLease(l store.Lease) {
	j.mu.Lock()
	j.lease = l
	j.mu.Unlock()
}

// JobManager runs submitted flows on a bounded worker pool. Jobs queue
// FIFO; each runs core.RunFlow, buffers its Observer events for SSE
// subscribers, and installs the finished model into the registry under
// the submitting tenant. A job's checkpoint lives in the artefact store
// alone, under (tenant, checkpoints, model), so any replica sharing the
// store resumes a job another replica checkpointed. Shutdown cancels
// running flows — cooperatively, so each writes a resumable checkpoint —
// and waits for the workers to drain.
type JobManager struct {
	registry *Registry
	st       store.Store // the registry's backing store (checkpoints, job records, leases)
	problems map[string]ProblemFactory
	procs    map[string]ProcessFactory
	metrics  *core.Metrics
	log      *slog.Logger
	// cluster, when non-nil, makes this manager one replica of a fleet
	// sharing the artefact store: jobs are claimed through store leases,
	// checkpoints are written fenced, and a takeover scanner adopts jobs
	// whose owner stopped heartbeating. See EnableCluster.
	cluster *clusterState
	// crashForTest, when set, makes terminal-state and shutdown handling
	// skip lease release and job-record cleanup — simulating a replica
	// whose process died without unwinding (the chaos test's SIGKILL
	// stand-in; the CI cluster-smoke script kills a real process).
	crashForTest atomic.Bool

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *job

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing
	seq   int
}

// NewJobManager starts workers goroutines consuming a job queue of the
// given depth (<=0 selects 1 worker / depth flowQueueDepth).
func NewJobManager(workers, queueDepth int, reg *Registry,
	problems map[string]ProblemFactory, procs map[string]ProcessFactory,
	metrics *core.Metrics, log *slog.Logger) *JobManager {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = flowQueueDepth
	}
	if log == nil {
		log = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		registry: reg,
		st:       reg.Store(),
		problems: problems,
		procs:    procs,
		metrics:  metrics,
		log:      log,
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *job, queueDepth),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// defaultLeaseTTL is the job-lease heartbeat window when Config.LeaseTTL
// is zero: long enough that three missed heartbeats (TTL/3 cadence)
// precede a takeover, short enough that a crashed replica's jobs are
// adopted within seconds.
const defaultLeaseTTL = 15 * time.Second

// clusterState carries a replica's cluster-mode identity. Cluster mode
// keeps exactly one replica running each job: acquire on submit,
// heartbeat at TTL/3, fenced checkpoint writes, release-keep-record on
// drain, and a takeover scanner that adopts jobs whose lease lapsed.
// The owner runs every Monte Carlo sample itself.
type clusterState struct {
	id  string
	ttl time.Duration
}

// EnableCluster turns the manager into one replica of a fleet sharing
// the artefact store: id names this replica (the lease owner string)
// and ttl is the job-lease heartbeat window (0 → 15s). Must be called
// before the first submission; it also starts the takeover scanner
// that adopts jobs whose owner's lease lapsed.
func (m *JobManager) EnableCluster(id string, ttl time.Duration) {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	m.cluster = &clusterState{id: id, ttl: ttl}
	m.metrics.SetReplica(id)
	m.wg.Add(1)
	go m.takeoverLoop()
}

// takeoverLoop periodically scans the shared store for job records
// whose lease can be acquired — jobs whose owner crashed (TTL lapsed)
// or drained (released on shutdown) — and adopts them.
func (m *JobManager) takeoverLoop() {
	defer m.wg.Done()
	interval := m.cluster.ttl / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.scanTakeovers()
		}
	}
}

func (m *JobManager) scanTakeovers() {
	tenants, err := m.st.Tenants()
	if err != nil {
		m.log.Warn("takeover scan failed", "err", err)
		return
	}
	for _, tenant := range tenants {
		infos, err := m.st.List(tenant, store.KindJob)
		if err != nil {
			continue
		}
		for _, info := range infos {
			m.tryAdopt(tenant, info.Name)
		}
	}
}

// tryAdopt claims one orphaned job record. Acquisition failure is the
// common case (the owner is alive and heartbeating — including this
// replica itself) and not an error.
func (m *JobManager) tryAdopt(tenant, name string) {
	if m.baseCtx.Err() != nil {
		return
	}
	l, err := m.st.AcquireLease(tenant, name, m.cluster.id, m.cluster.ttl)
	if err != nil {
		return
	}
	data, _, err := m.st.Get(store.Key{Tenant: tenant, Kind: store.KindJob, Name: name})
	if err != nil {
		// The record vanished between List and the claim (the owner
		// finished and cleaned up); nothing to adopt.
		m.st.ReleaseLease(l)
		return
	}
	var req api.FlowRequest
	if err := json.Unmarshal(data, &req); err != nil {
		m.log.Warn("corrupt job record", "tenant", tenant, "model", name, "err", err)
		m.st.ReleaseLease(l)
		return
	}
	req.Tenant, req.Model = wireTenant(tenant), name
	m.metrics.IncLeaseTakeovers()
	m.metrics.IncLeaseAcquired()
	m.metrics.AddLeasesHeld(1)
	m.log.Info("adopting orphaned job", "tenant", tenant, "model", name)
	// submit owns the lease from here: every one of its failure paths
	// releases it.
	if _, err := m.submit(req, &l); err != nil {
		m.log.Warn("job adoption failed", "tenant", tenant, "model", name, "err", err)
	}
}

// Shutdown cancels running flows (each checkpoints and stops at its
// next generation / MC-point boundary) and waits for the pool to drain,
// or for ctx to expire.
func (m *JobManager) Shutdown(ctx context.Context) error {
	m.stop()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		m.releaseHeldLeases()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: job pool did not drain: %w", ctx.Err())
	}
}

// releaseHeldLeases frees every lease still held after the drain —
// jobs that were cancelled mid-run settle their own lease, so this
// catches the ones that never ran (still queued at shutdown). Records
// stay in the store: a peer replica's scanner adopts them immediately
// instead of waiting out the TTL.
func (m *JobManager) releaseHeldLeases() {
	if m.cluster == nil || m.crashForTest.Load() {
		return
	}
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		m.settle(j)
	}
}

// Submit validates and enqueues a flow request; the embedded TenantRef
// names the tenant whose catalog receives the finished model.
func (m *JobManager) Submit(req api.FlowRequest) (*api.JobStatus, error) {
	return m.submit(req, nil)
}

// submit is the shared submission path. adopted, when non-nil, is a
// lease already claimed by the takeover scanner — the job reuses it
// instead of acquiring its own.
func (m *JobManager) submit(req api.FlowRequest, adopted *store.Lease) (*api.JobStatus, error) {
	tenant := req.TenantOrDefault()
	// fail unwinds an adopted lease on the early validation paths — the
	// scanner handed us ownership, so failing to start the job must not
	// strand the lease until its TTL.
	fail := func(err error) (*api.JobStatus, error) {
		if adopted != nil {
			m.st.ReleaseLease(*adopted)
			m.metrics.AddLeasesHeld(-1)
		}
		return nil, err
	}
	pf, ok := m.problems[req.Problem]
	if !ok {
		return fail(fmt.Errorf("server: unknown problem %q", req.Problem))
	}
	procName := req.Process
	if procName == "" {
		procName = "c35"
	}
	prf, ok := m.procs[procName]
	if !ok {
		return fail(fmt.Errorf("server: unknown process %q", procName))
	}
	if err := core.CheckFlowMCStrategy(req.MCStrategy); err != nil {
		return fail(err)
	}
	cfg := core.FlowConfig{
		Problem:         pf(),
		Proc:            prf(),
		PopSize:         req.PopSize,
		Generations:     req.Generations,
		MCSamples:       req.MCSamples,
		Seed:            req.Seed,
		Workers:         req.Workers,
		Model:           core.ModelOptions{MaxTablePoints: req.MaxTablePoints},
		CheckpointEvery: req.CheckpointEvery,
		Metrics:         m.metrics,
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}

	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("job-%06d", m.seq)
	modelName := req.Model
	if modelName == "" {
		modelName = id
	}
	if err := validRef(tenant, modelName); err != nil {
		m.seq--
		m.mu.Unlock()
		return fail(err)
	}
	j := &job{
		id:     id,
		tenant: tenant,
		cfg:    cfg,
		status: api.JobStatus{
			ID:      id,
			State:   api.JobQueued,
			Model:   modelName,
			Tenant:  wireTenant(tenant),
			Request: req,
			Created: time.Now(),
		},
		notify: make(map[chan struct{}]struct{}),
		done:   make(chan struct{}),
	}
	// The checkpoint is keyed by (tenant, model name), not job id, so
	// cancelling a job (or losing it to a shutdown) and resubmitting the
	// same request resumes from the saved state instead of restarting.
	j.cfg.CheckpointStore = jobCheckpoint{m: m, j: j}
	m.mu.Unlock()

	// Cluster mode: claim the job before it can run. The lease makes
	// (tenant, model) exclusive across the fleet — a second replica
	// submitting the same model is refused with ErrLeaseHeld — and the
	// job record in the shared store is what a peer adopts if this
	// replica dies or drains.
	if m.cluster != nil {
		if adopted != nil {
			j.lease = *adopted
		} else {
			l, err := m.st.AcquireLease(tenant, modelName, m.cluster.id, m.cluster.ttl)
			if err != nil {
				return nil, fmt.Errorf("server: job %s/%s: %w", tenant, modelName, err)
			}
			j.lease = l
			m.metrics.IncLeaseAcquired()
			m.metrics.AddLeasesHeld(1)
		}
		rec := req
		rec.Tenant, rec.Model = wireTenant(tenant), modelName
		recJSON, err := json.Marshal(rec)
		if err == nil {
			_, err = m.st.PutIfLeased(j.lease, store.KindJob, modelName, recJSON)
		}
		if err != nil {
			m.settle(j, store.KindJob)
			return nil, fmt.Errorf("server: job record write: %w", err)
		}
	}

	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	select {
	case m.queue <- j:
	default:
		m.mu.Lock()
		delete(m.jobs, id)
		m.order = m.order[:len(m.order)-1]
		m.mu.Unlock()
		m.settle(j, store.KindJob)
		return nil, ErrQueueFull
	}
	j.emit(api.Event{Type: api.EventJobQueued})
	st := j.snapshot()
	return &st, nil
}

// worker consumes the queue until shutdown.
func (m *JobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job to a terminal state.
func (m *JobManager) run(j *job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.status.State != api.JobQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.status.State = api.JobRunning
	j.status.Started = time.Now()
	j.cancel = cancel
	cfg := j.cfg
	j.mu.Unlock()

	j.emit(api.Event{Type: api.EventJobStarted})
	m.log.Info("job started", "job", j.id, "problem", cfg.Problem.ObjectiveNames(), "model", j.status.Model)

	// Cluster mode: heartbeat the job's lease while the flow runs. A
	// renew failure means another replica fenced us out (we stalled past
	// the TTL and it adopted the job) — the flow is cancelled so this
	// zombie stops burning CPU on work it can no longer commit. The
	// heartbeat is stopped AND joined before the lease is settled below,
	// so a late renew can never resurrect a lease the settle released.
	stopHB := func() {}
	if _, ok := j.leaseHandle(); ok {
		hbStop, hbDone := make(chan struct{}), make(chan struct{})
		go m.heartbeat(j, cancel, hbStop, hbDone)
		stopHB = func() {
			close(hbStop)
			<-hbDone
		}
	}

	cfg.Obs = core.ObserverFunc(j.observe)
	res, err := core.RunFlow(ctx, cfg)
	if errors.Is(err, core.ErrCheckpointMismatch) {
		// The stored checkpoint is an earlier request's under this model
		// name (a cancelled job with another seed, say). No client can
		// delete it, so the job retires it and runs this request afresh.
		m.log.Info("retiring a checkpoint from another flow configuration", "job", j.id, "model", j.status.Model)
		if err = m.retire(j, store.KindCheckpoint); err == nil {
			res, err = core.RunFlow(ctx, cfg)
		}
	}
	stopHB()

	final := api.Event{Type: api.EventJobDone}
	j.mu.Lock()
	if res != nil {
		j.status.Evaluations = res.Evaluations
		j.status.MCSimulations = res.MCSimulations
		j.status.ParetoPoints = len(res.Points)
		j.status.DroppedPoints = res.DroppedPoints
		j.status.Resumed = res.Resumed
	}
	switch {
	case err == nil:
		j.status.State = api.JobSucceeded
	case errors.Is(err, context.Canceled):
		j.status.State = api.JobCancelled
	default:
		j.status.State = api.JobFailed
		j.status.Error = err.Error()
	}
	j.status.Finished = time.Now()
	state := j.status.State
	modelName := j.status.Model
	j.mu.Unlock()

	if state == api.JobSucceeded {
		if version, ierr := m.registry.Install(j.tenant, modelName, res.Model); ierr != nil {
			j.mu.Lock()
			j.status.State = api.JobFailed
			j.status.Error = ierr.Error()
			state = api.JobFailed
			err = ierr
			j.mu.Unlock()
		} else {
			j.mu.Lock()
			j.status.Request.Version = version
			j.mu.Unlock()
		}
	}

	// Settle the job. Only an installed model retires the checkpoint, so
	// a failed install can still resume. A drain-cancellation (shutdown,
	// not user intent) keeps the job record so a peer adopts the job
	// immediately; every other terminal state retires the record before
	// the release, so a finished job can never be "adopted".
	var retired []store.Kind
	if state == api.JobSucceeded {
		retired = append(retired, store.KindCheckpoint)
	}
	if drain := state == api.JobCancelled && m.baseCtx.Err() != nil; !drain {
		retired = append(retired, store.KindJob)
	}
	m.settle(j, retired...)

	final.State = state
	if err != nil {
		final.Error = err.Error()
	}
	j.emit(final)
	close(j.done)
	m.log.Info("job finished", "job", j.id, "state", state, "err", err)
}

// heartbeat renews the job's lease at a third of its TTL until stop
// closes; a failed renew cancels the flow (zombie fencing). done is
// closed on exit so the caller can join before settling the lease.
func (m *JobManager) heartbeat(j *job, cancelFlow context.CancelFunc, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ttl := m.cluster.ttl
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			l, ok := j.leaseHandle()
			if !ok {
				return
			}
			nl, err := m.st.RenewLease(l, ttl)
			if err != nil {
				m.metrics.IncLeaseRejections()
				m.log.Warn("job lease lost; cancelling flow", "job", j.id, "err", err)
				cancelFlow()
				return
			}
			j.setLease(nl)
		}
	}
}

// settle ends a job: it retires the job's stored artefacts of the given
// kinds (fenced, see retire) and releases the job's lease, if it holds
// one. Only cluster mode writes job records, so retiring a single-node
// job's record finds nothing. A simulated crash (crashForTest) leaves
// everything behind, exactly as a SIGKILLed process would.
func (m *JobManager) settle(j *job, retired ...store.Kind) {
	if m.crashForTest.Load() {
		return
	}
	m.retire(j, retired...) //nolint:errcheck // retire logs its failures
	l, ok := j.leaseHandle()
	if !ok {
		return
	}
	if err := m.st.ReleaseLease(l); err != nil && !errors.Is(err, store.ErrLeaseLost) {
		m.log.Warn("lease release failed", "job", j.id, "err", err)
	}
	m.metrics.AddLeasesHeld(-1)
	j.setLease(store.Lease{})
}

// retire deletes the job's stored artefacts of the given kinds. A
// cluster-mode replica first renews the job's lease: when a peer has
// adopted the job the renewal fails with ErrLeaseLost, and the replica
// deletes nothing, so a zombie never removes the record or checkpoint
// its successor runs from. Failures are logged and returned.
func (m *JobManager) retire(j *job, kinds ...store.Kind) error {
	if len(kinds) == 0 {
		return nil
	}
	if l, ok := j.leaseHandle(); ok {
		nl, err := m.st.RenewLease(l, m.cluster.ttl)
		if err != nil {
			m.metrics.IncLeaseRejections()
			m.log.Warn("job lease lost; leaving its stored state to the new owner", "job", j.id, "err", err)
			return err
		}
		j.setLease(nl)
	}
	var errs []error
	for _, kind := range kinds {
		err := m.st.Delete(store.Key{Tenant: j.tenant, Kind: kind, Name: j.status.Model})
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			m.log.Warn("job cleanup failed", "job", j.id, "kind", kind, "err", err)
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// jobCheckpoint is a job's core.CheckpointStore: the flow's resume state
// lives in the artefact store under (tenant, checkpoints, model), the
// one copy every replica sharing the store reads.
type jobCheckpoint struct {
	m *JobManager
	j *job
}

// Load implements core.CheckpointStore. A damaged stored copy is
// skipped: the job starts afresh rather than failing.
func (c jobCheckpoint) Load() ([]byte, error) {
	data, _, err := c.m.st.Get(store.Key{Tenant: c.j.tenant, Kind: store.KindCheckpoint, Name: c.j.status.Model})
	switch {
	case errors.Is(err, store.ErrNotFound):
		return nil, fs.ErrNotExist
	case errors.Is(err, store.ErrCorrupt):
		c.m.log.Warn("damaged checkpoint skipped; the job starts afresh", "job", c.j.id, "err", err)
		return nil, fs.ErrNotExist
	case err != nil:
		return nil, fmt.Errorf("server: loading checkpoint: %w", err)
	}
	return data, nil
}

// Save implements core.CheckpointStore: one encode in memory, one store
// write. In cluster mode the write is fenced: a replica whose job a peer
// adopted is refused, so it can never overwrite the successor's newer
// checkpoint, and its flow stops.
func (c jobCheckpoint) Save(encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	data := buf.Bytes()
	var err error
	if l, ok := c.j.leaseHandle(); ok {
		_, err = c.m.st.PutIfLeased(l, store.KindCheckpoint, c.j.status.Model, data)
		if errors.Is(err, store.ErrLeaseLost) {
			c.m.metrics.IncLeaseRejections()
		}
	} else {
		_, err = c.m.st.Put(c.j.tenant, store.KindCheckpoint, c.j.status.Model, data)
	}
	if err != nil {
		return fmt.Errorf("server: saving checkpoint: %w", err)
	}
	return nil
}

// Clear implements core.CheckpointStore. It keeps the stored copy: the
// job retires it once the model installs (see run), so a failed install
// can still resume.
func (jobCheckpoint) Clear() error { return nil }

// observe translates one core event into the job's wire stream and
// progress counters.
func (j *job) observe(e core.Event) {
	var ev api.Event
	switch t := e.(type) {
	case core.StageStart:
		ev = api.Event{Type: api.EventStageStart, Stage: string(t.Stage), Total: t.Total}
	case core.StageEnd:
		ev = api.Event{Type: api.EventStageEnd, Stage: string(t.Stage), ElapsedSecs: t.Elapsed.Seconds()}
	case core.GenerationDone:
		ev = api.Event{Type: api.EventGeneration, Gen: t.Gen, Generations: t.Generations,
			Evals: t.Evals, TotalEvals: t.TotalEvals, BestFitness: t.BestFitness}
		j.mu.Lock()
		j.status.Evaluations = t.Evals
		j.mu.Unlock()
	case core.MCPointDone:
		perf, delta := t.Perf, t.DeltaPct
		ev = api.Event{Type: api.EventMCPoint, Index: t.Index, Total: t.Total,
			Perf: &perf, DeltaPct: &delta, Failures: t.Failures, Resumed: t.Resumed}
		j.mu.Lock()
		j.status.ParetoPoints++
		j.mu.Unlock()
	case core.PointDropped:
		ev = api.Event{Type: api.EventPointDropped, Index: t.Index}
		if t.Err != nil {
			ev.Error = t.Err.Error()
		}
		j.mu.Lock()
		j.status.DroppedPoints++
		j.mu.Unlock()
	case core.CheckpointSaved:
		ev = api.Event{Type: api.EventCheckpointSaved, MCDone: t.MCDone}
	case core.FlowResumed:
		ev = api.Event{Type: api.EventFlowResumed, MCDone: t.MCDone, Resumed: true}
		j.mu.Lock()
		j.status.Resumed = true
		j.mu.Unlock()
	default:
		return
	}
	j.emit(ev)
}

// emit appends an event to the replay buffer and wakes subscribers.
func (j *job) emit(ev api.Event) {
	j.mu.Lock()
	j.nextSeq++
	ev.Seq = j.nextSeq
	ev.Time = time.Now()
	j.events = append(j.events, ev)
	if len(j.events) > eventBuffer {
		drop := len(j.events) - eventBuffer
		j.events = j.events[drop:]
		j.firstSeq += drop
	}
	for ch := range j.notify {
		select {
		case ch <- struct{}{}:
		default: // already signalled
		}
	}
	j.mu.Unlock()
}

// subscribe registers a wake-up channel; the caller must unsubscribe.
func (j *job) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.notify[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.notify, ch)
	j.mu.Unlock()
}

// eventsSince copies the buffered events with Seq > seq.
func (j *job) eventsSince(seq int) []api.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < j.firstSeq {
		seq = j.firstSeq
	}
	idx := seq - j.firstSeq // events[idx].Seq == seq+1
	if idx >= len(j.events) {
		return nil
	}
	out := make([]api.Event, len(j.events)-idx)
	copy(out, j.events[idx:])
	return out
}

// snapshot copies the current status.
func (j *job) snapshot() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// get looks a job up by id within a tenant. A job belonging to another
// tenant reports ErrUnknownJob — job ids must not leak across
// namespaces.
func (m *JobManager) get(tenant, id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.tenant != tenant {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Status reports one job.
func (m *JobManager) Status(tenant, id string) (*api.JobStatus, error) {
	j, err := m.get(tenant, id)
	if err != nil {
		return nil, err
	}
	st := j.snapshot()
	return &st, nil
}

// List reports a tenant's jobs in submission order.
func (m *JobManager) List(tenant string) []api.JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]api.JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, err := m.get(tenant, id); err == nil {
			out = append(out, j.snapshot())
		}
	}
	return out
}

// Cancel stops a queued or running job. Cancelling a running flow is
// cooperative: the job transitions to cancelled once the flow has
// checkpointed and unwound. Cancelling a terminal job is a no-op.
func (m *JobManager) Cancel(tenant, id string) (*api.JobStatus, error) {
	j, err := m.get(tenant, id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch j.status.State {
	case api.JobQueued:
		// The worker skips jobs that left the queued state.
		j.status.State = api.JobCancelled
		j.status.Finished = time.Now()
		j.mu.Unlock()
		m.settle(j, store.KindJob)
		j.emit(api.Event{Type: api.EventJobDone, State: api.JobCancelled})
		close(j.done)
	case api.JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
	default:
		j.mu.Unlock()
	}
	st := j.snapshot()
	return &st, nil
}

// Done exposes the job's terminal-state channel (tests and the SSE
// handler wait on it).
func (m *JobManager) Done(tenant, id string) (<-chan struct{}, error) {
	j, err := m.get(tenant, id)
	if err != nil {
		return nil, err
	}
	return j.done, nil
}
