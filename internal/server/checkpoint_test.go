package server

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/process"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
)

// slowFlowReq is a small flow on the slowed-down synthetic problem,
// long enough in its Monte Carlo stage to be cancelled mid-stage.
func slowFlowReq(model string, seed int64) api.FlowRequest {
	return api.FlowRequest{
		TenantRef:       api.TenantRef{Model: model},
		Problem:         "synthslow",
		PopSize:         16,
		Generations:     6,
		MCSamples:       30,
		Seed:            seed,
		CheckpointEvery: 1,
	}
}

// runJob submits req and returns the job's terminal status.
func runJob(t *testing.T, m *JobManager, req api.FlowRequest) api.JobStatus {
	t.Helper()
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID, 60*time.Second)
	fin, err := m.Status(api.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return *fin
}

// cancelMidMC submits req, cancels it once its first Monte Carlo point
// is done, and waits for the job to settle as cancelled.
func cancelMidMC(t *testing.T, m *JobManager, req api.FlowRequest) {
	t.Helper()
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := m.Status(api.DefaultTenant, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if api.Terminal(got.State) {
			t.Fatalf("job finished before it could be cancelled: %+v", got)
		}
		if got.ParetoPoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no Monte Carlo point completed in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(api.DefaultTenant, st.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID, 30*time.Second)
	if got, _ := m.Status(api.DefaultTenant, st.ID); got.State != api.JobCancelled {
		t.Fatalf("state %q (%s), want cancelled", got.State, got.Error)
	}
}

// TestResubmitAfterCancelWithOtherSeed: a cancelled job's checkpoint
// does not poison its model name. A resubmission under another seed
// retires the checkpoint and runs afresh, counted as one flow, while
// the original request resubmitted after a cancel still resumes.
func TestResubmitAfterCancelWithOtherSeed(t *testing.T) {
	m, _ := newTestJM(t, 1, 8, slowFactory(time.Millisecond))
	cancelMidMC(t, m, slowFlowReq("p1", 1))

	fin := runJob(t, m, slowFlowReq("p1", 2))
	if fin.State != api.JobSucceeded || fin.Resumed {
		t.Fatalf("other seed: state %q (%s), resumed %v; want succeeded, not resumed", fin.State, fin.Error, fin.Resumed)
	}
	if n := m.metrics.Snapshot().Flows; n != 2 {
		t.Errorf("flows = %d after one cancelled and one fresh job, want 2", n)
	}

	cancelMidMC(t, m, slowFlowReq("p1", 1))
	fin = runJob(t, m, slowFlowReq("p1", 1))
	if fin.State != api.JobSucceeded || !fin.Resumed {
		t.Fatalf("same request: state %q (%s), resumed %v; want succeeded, resumed", fin.State, fin.Error, fin.Resumed)
	}
}

// TestDamagedStoredCheckpointStartsFresh: a stored checkpoint whose
// blob is damaged is skipped. The resubmitted job starts afresh,
// succeeds, and installs the model an uninterrupted run installs.
func TestDamagedStoredCheckpointStartsFresh(t *testing.T) {
	req := slowFlowReq("damaged", 4)
	base, _ := newTestJM(t, 1, 8, slowFactory(time.Millisecond))
	want := runJob(t, base, req).Request.Version

	m, reg := newTestJM(t, 1, 8, slowFactory(time.Millisecond))
	cancelMidMC(t, m, req)
	st := reg.Store().(*store.Disk)
	info, err := st.Stat(store.Key{Tenant: api.DefaultTenant, Kind: store.KindCheckpoint, Name: "damaged"})
	if err != nil {
		t.Fatalf("no stored checkpoint after cancel: %v", err)
	}
	blob := filepath.Join(st.Root(), "blobs", info.Version[:2], info.Version)
	b, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(blob, b, 0o644); err != nil {
		t.Fatal(err)
	}

	fin := runJob(t, m, req)
	if fin.State != api.JobSucceeded || fin.Resumed {
		t.Fatalf("state %q (%s), resumed %v; want succeeded, not resumed", fin.State, fin.Error, fin.Resumed)
	}
	if fin.Request.Version != want {
		t.Errorf("installed version %s, uninterrupted run %s", fin.Request.Version, want)
	}
}

// TestJobStateOnlyInStore: a server keeps its jobs' state in the
// artefact store alone. After one cancelled and one finished job, the
// models directory holds only the store's own trees.
func TestJobStateOnlyInStore(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{ModelsDir: dir, ReplicaID: "r1", FlowWorkers: 1,
		Problems: slowFactory(time.Millisecond), Metrics: &core.Metrics{}, Logger: quietLog()})
	defer shutdown(t, srv)
	cancelMidMC(t, srv.Jobs(), slowFlowReq("cancelled", 1))
	if fin := runJob(t, srv.Jobs(), slowFlowReq("finished", 1)); fin.State != api.JobSucceeded {
		t.Fatalf("state %q (%s), want succeeded", fin.State, fin.Error)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch e.Name() {
		case "t", "blobs", "leases":
		default:
			t.Errorf("models directory holds %q outside the store's trees", e.Name())
		}
	}
	ck := func(model string) error {
		_, err := srv.Registry().Store().Stat(store.Key{Tenant: api.DefaultTenant, Kind: store.KindCheckpoint, Name: model})
		return err
	}
	if err := ck("cancelled"); err != nil {
		t.Errorf("cancelled job's checkpoint: %v", err)
	}
	if err := ck("finished"); err == nil {
		t.Error("finished job's checkpoint still stored")
	}
}

// stallingStore holds every RenewLease once armed until release is
// closed: a replica that stops heartbeating (paused, partitioned) while
// its flow runs on.
type stallingStore struct {
	store.Store
	armed   atomic.Bool
	release chan struct{}
}

func (s *stallingStore) RenewLease(l store.Lease, ttl time.Duration) (store.Lease, error) {
	if s.armed.Load() {
		<-s.release
	}
	return s.Store.RenewLease(l, ttl)
}

// gatedMCProblem holds every Monte Carlo evaluation until gate closes.
type gatedMCProblem struct {
	synthProblem
	gate <-chan struct{}
}

func (p gatedMCProblem) Evaluate(g []float64, s *process.Sample) ([]float64, error) {
	if s != nil {
		<-p.gate
	}
	return p.synthProblem.Evaluate(g, s)
}

// closer closes ch at most once.
func closer(ch chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestZombieSettleKeepsSuccessorState: replica A stops heartbeating
// past its lease TTL and B adopts the job, but A's flow runs on to the
// end. When A settles, it must delete nothing its successor owns: B's
// job record and the checkpoint B resumed from survive, and B finishes
// the job with the model an uninterrupted run installs.
func TestZombieSettleKeepsSuccessorState(t *testing.T) {
	req := slowFlowReq("zombie-m", 7)
	req.CheckpointEvery = -1 // only the post-MOO save: A's flow never meets the fence
	base, _ := newClusterJM(t, store.OpenDisk(t.TempDir()), "base", time.Minute, slowFactory(time.Millisecond))
	want := runJob(t, base, req).Request.Version

	root := t.TempDir()
	stA := &stallingStore{Store: store.OpenDisk(root), release: make(chan struct{})}
	a, _ := newClusterJM(t, stA, "ra", 300*time.Millisecond, slowFactory(5*time.Millisecond))
	releaseA := closer(stA.release)
	t.Cleanup(releaseA)
	ast, err := a.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitArtefact(t, stA, store.KindCheckpoint, "zombie-m", 30*time.Second)
	stA.armed.Store(true)

	gate := make(chan struct{})
	b, _ := newClusterJM(t, store.OpenDisk(root), "rb", 300*time.Millisecond,
		map[string]ProblemFactory{"synthslow": func() core.CircuitProblem { return gatedMCProblem{gate: gate} }})
	openB := closer(gate)
	t.Cleanup(openB)

	// B adopts the job once A's lease lapses; A's flow runs to its end
	// and blocks on its stalled heartbeat.
	var adopted api.JobStatus
	aj, err := a.get(api.DefaultTenant, ast.ID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for adopted.ID == "" || !sawEvent(aj, api.EventStageEnd, string(core.StageTables)) {
		if time.Now().After(deadline) {
			t.Fatalf("no adoption by B (%+v) or no end of A's flow in time", adopted)
		}
		for _, js := range b.List(api.DefaultTenant) {
			if js.Model == "zombie-m" {
				adopted = js
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	releaseA()
	waitDone(t, a, ast.ID, 30*time.Second)

	for _, kind := range []store.Kind{store.KindJob, store.KindCheckpoint} {
		if _, err := stA.Stat(store.Key{Tenant: api.DefaultTenant, Kind: kind, Name: "zombie-m"}); err != nil {
			t.Errorf("A's settle removed the successor's %s artefact: %v", kind, err)
		}
	}
	if n := a.metrics.Snapshot().LeaseRejections; n == 0 {
		t.Error("A recorded no lease rejection")
	}

	openB()
	waitDone(t, b, adopted.ID, 60*time.Second)
	fin, err := b.Status(api.DefaultTenant, adopted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded || !fin.Resumed {
		t.Fatalf("adopted job: state %q (%s), resumed %v; want succeeded, resumed", fin.State, fin.Error, fin.Resumed)
	}
	if fin.Request.Version != want {
		t.Errorf("adopted job installed %s, uninterrupted run %s", fin.Request.Version, want)
	}
}

// sawEvent reports whether j's buffered stream holds an event of the
// given type and stage.
func sawEvent(j *job, typ, stage string) bool {
	for _, ev := range j.eventsSince(0) {
		if ev.Type == typ && ev.Stage == stage {
			return true
		}
	}
	return false
}
