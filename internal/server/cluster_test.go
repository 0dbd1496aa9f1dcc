package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/process"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
)

// newClusterJM builds a cluster-enabled JobManager over the given
// (usually shared) store.
func newClusterJM(t *testing.T, st store.Store, id string, ttl time.Duration,
	problems map[string]ProblemFactory) (*JobManager, *Registry) {
	t.Helper()
	reg := NewRegistry(st, 8)
	m := NewJobManager(2, 8, reg,
		problems, map[string]ProcessFactory{"c35": process.C35},
		&core.Metrics{}, quietLog())
	m.EnableCluster(id, ttl)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown(%s): %v", id, err)
		}
		reg.Close()
	})
	return m, reg
}

func slowFactory(delay time.Duration) map[string]ProblemFactory {
	return map[string]ProblemFactory{
		"synthslow": func() core.CircuitProblem { return slowMCProblem{delay: delay} },
	}
}

// waitArtefact polls the store until (default, kind, name) exists.
func waitArtefact(t *testing.T, st store.Store, kind store.Kind, name string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if _, err := st.Stat(store.Key{Tenant: api.DefaultTenant, Kind: kind, Name: name}); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("artefact %s/%s never appeared", kind, name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitModel polls a registry until the named model is installed,
// returning its content-addressed version.
func waitModel(t *testing.T, reg *Registry, name string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if info, err := reg.Info(api.DefaultTenant, name); err == nil {
			return info.Version
		}
		if time.Now().After(deadline) {
			t.Fatalf("model %q never installed", name)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterLeaseExcludesDuplicateJob pins job exclusivity: while one
// replica owns a (tenant, model) job, a peer sharing the store is
// refused with ErrLeaseHeld; once the owner finishes, the name is free.
func TestClusterLeaseExcludesDuplicateJob(t *testing.T) {
	root := t.TempDir()
	bp := newBlockingProblem()
	a, _ := newClusterJM(t, store.OpenDisk(root), "ra", time.Minute,
		map[string]ProblemFactory{"synth": func() core.CircuitProblem { return bp }})
	b, _ := newClusterJM(t, store.OpenDisk(root), "rb", time.Minute, synthFactory())

	st, err := a.Submit(smallFlowReq("excl"))
	if err != nil {
		t.Fatal(err)
	}
	<-bp.started // the job is mid-flow on A

	if _, err := b.Submit(smallFlowReq("excl")); !errors.Is(err, store.ErrLeaseHeld) {
		t.Fatalf("duplicate submission: want ErrLeaseHeld, got %v", err)
	}
	// A different model name is independent.
	if _, err := b.Submit(smallFlowReq("excl-other")); err != nil {
		t.Fatalf("independent name refused: %v", err)
	}

	close(bp.release)
	waitDone(t, a, st.ID, 30*time.Second)
	// The lease settles before the job reports done, so the name is
	// immediately claimable again.
	if _, err := b.Submit(smallFlowReq("excl")); err != nil {
		t.Fatalf("post-completion submission refused: %v", err)
	}
}

// TestClusterDrainHandsOffJob pins the drain satellite: shutting a
// replica down releases its job leases immediately (keeping the job
// records), so a peer adopts and finishes the work without waiting out
// the TTL — the TTL here is a full minute, far beyond the test budget.
func TestClusterDrainHandsOffJob(t *testing.T) {
	root := t.TempDir()
	stA := store.OpenDisk(root)
	a, _ := newClusterJM(t, stA, "ra", time.Minute, slowFactory(2*time.Millisecond))
	req := api.FlowRequest{
		TenantRef:       api.TenantRef{Model: "drain-m"},
		Problem:         "synthslow",
		PopSize:         16,
		Generations:     6,
		MCSamples:       30,
		Seed:            3,
		CheckpointEvery: 1,
	}
	if _, err := a.Submit(req); err != nil {
		t.Fatal(err)
	}
	// Wait until the flow has saved at least one checkpoint to the
	// shared store, then drain A mid-run.
	waitArtefact(t, stA, store.KindCheckpoint, "drain-m", 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The record survived the drain; the lease did not.
	if _, err := stA.Stat(store.Key{Tenant: api.DefaultTenant, Kind: store.KindJob, Name: "drain-m"}); err != nil {
		t.Fatalf("job record lost on drain: %v", err)
	}

	b, regB := newClusterJM(t, store.OpenDisk(root), "rb", 500*time.Millisecond,
		slowFactory(2*time.Millisecond))
	waitModel(t, regB, "drain-m", 30*time.Second)
	if n := b.metrics.Snapshot().LeaseTakeovers; n == 0 {
		t.Error("survivor recorded no lease takeover")
	}
	// The adopted run resumed from A's stored checkpoint rather than
	// restarting.
	var adopted *api.JobStatus
	for _, js := range b.List(api.DefaultTenant) {
		if js.Model == "drain-m" {
			adopted = &js
			break
		}
	}
	if adopted == nil {
		t.Fatal("no adopted job on survivor")
	}
	if !adopted.Resumed {
		t.Error("adopted job did not resume from the stored checkpoint")
	}
}

// TestClusterChaosTakeoverBitIdentical is the chaos e2e: a replica
// "dies" mid-Monte-Carlo (crashForTest leaves its lease and job record
// behind, exactly as SIGKILL would), a survivor sharing the store
// adopts the job once the TTL lapses, resumes from the stored
// checkpoint, and installs a model bit-identical to an uninterrupted
// single-node run.
func TestClusterChaosTakeoverBitIdentical(t *testing.T) {
	req := api.FlowRequest{
		TenantRef:       api.TenantRef{Model: "chaos-m"},
		Problem:         "synthslow",
		PopSize:         16,
		Generations:     6,
		MCSamples:       30,
		Seed:            5,
		CheckpointEvery: 1,
	}
	// Baseline: the same request run to completion on one node.
	base, regBase := newClusterJM(t, store.OpenDisk(t.TempDir()), "base", time.Minute,
		slowFactory(2*time.Millisecond))
	bst, err := base.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, base, bst.ID, 60*time.Second)
	want := waitModel(t, regBase, "chaos-m", time.Second)

	// The doomed replica: short TTL so the takeover happens quickly.
	root := t.TempDir()
	stA := store.OpenDisk(root)
	a, _ := newClusterJM(t, stA, "ra", 400*time.Millisecond, slowFactory(2*time.Millisecond))
	a.crashForTest.Store(true)
	ast, err := a.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitArtefact(t, stA, store.KindCheckpoint, "chaos-m", 30*time.Second)
	// "Crash": stop the flow and tear the manager down without settling
	// anything — lease and record stay behind, the heartbeat stops.
	if _, err := a.Cancel(api.DefaultTenant, ast.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, ast.ID, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The survivor adopts after the TTL and finishes the flow.
	stB := store.OpenDisk(root)
	b, regB := newClusterJM(t, stB, "rb", 400*time.Millisecond, slowFactory(2*time.Millisecond))
	got := waitModel(t, regB, "chaos-m", 60*time.Second)
	if got != want {
		t.Errorf("takeover result diverged: version %s, uninterrupted run %s", got, want)
	}
	if n := b.metrics.Snapshot().LeaseTakeovers; n == 0 {
		t.Error("survivor recorded no lease takeover")
	}
	// The finished job retired its record — nothing is left to adopt.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := stB.Stat(store.Key{Tenant: api.DefaultTenant, Kind: store.KindJob, Name: "chaos-m"})
		if errors.Is(err, store.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job record never retired after successful takeover")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterHealthExposition pins /healthz to liveness only, the same
// body in single-node and cluster mode; counters live on /metrics, and
// /debug/vars and the replica-to-replica Monte Carlo route are gone.
func TestClusterHealthExposition(t *testing.T) {
	serve := func(srv *Server, method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec
	}
	get := func(srv *Server, path string) *httptest.ResponseRecorder {
		return serve(srv, http.MethodGet, path)
	}
	shutdown := func(srv *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}

	single := New(Config{Store: store.OpenDisk(t.TempDir()), Logger: quietLog()})
	t.Cleanup(func() { shutdown(single) })
	clustered := New(Config{Store: store.OpenDisk(t.TempDir()),
		ReplicaID: "r9", Logger: quietLog()})
	t.Cleanup(func() { shutdown(clustered) })
	for name, srv := range map[string]*Server{"single-node": single, "cluster": clustered} {
		rec := get(srv, "/healthz")
		if rec.Code != http.StatusOK || rec.Body.String() != `{"status":"ok"}` {
			t.Errorf("%s healthz: HTTP %d %q, want 200 {\"status\":\"ok\"}", name, rec.Code, rec.Body)
		}
		if rec := get(srv, "/debug/vars"); rec.Code != http.StatusNotFound {
			t.Errorf("%s /debug/vars: HTTP %d, want 404", name, rec.Code)
		}
		if rec := serve(srv, http.MethodPost, "/internal/mc/shard"); rec.Code != http.StatusNotFound {
			t.Errorf("%s POST /internal/mc/shard: HTTP %d, want 404", name, rec.Code)
		}
	}
	if !strings.Contains(get(clustered, "/metrics").Body.String(), `ayd_replica_info{replica="r9"} 1`) {
		t.Error("cluster /metrics lacks ayd_replica_info for r9")
	}
}
