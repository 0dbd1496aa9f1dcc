package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"analogyield/internal/analysis"
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
	m := NewJobManager(t.TempDir(), 2, 8, reg,
		problems, map[string]ProcessFactory{"c35": process.C35},
		&core.Metrics{}, quietLog())
	m.EnableCluster(id, nil, ttl)
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

// TestClusterShardedFlowBitIdentical pins the cluster-mode correctness
// contract end to end over real HTTP: a flow whose Monte Carlo stage is
// sharded across 1 or 3 peer replicas (2- and 4-replica layouts)
// installs a model with the SAME content address as a single-node run —
// the shard placement is invisible in the results.
func TestClusterShardedFlowBitIdentical(t *testing.T) {
	req := api.FlowRequest{
		TenantRef:   api.TenantRef{Model: "shard-e2e"},
		Problem:     "synth",
		PopSize:     24,
		Generations: 8,
		MCSamples:   40,
		Seed:        7,
	}
	problems := func() map[string]ProblemFactory {
		return map[string]ProblemFactory{
			"synth": func() core.CircuitProblem { return synthProblem{} },
		}
	}
	newSrv := func(id string, peers []string) *Server {
		srv := New(Config{
			Store:     store.NewMemory(),
			DataDir:   t.TempDir(),
			ReplicaID: id,
			Peers:     peers,
			Problems:  problems(),
			Logger:    quietLog(),
		})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return srv
	}
	// flow runs the job on an owner whose peers are urls and returns the
	// installed model's version.
	flow := func(t *testing.T, urls []string) (string, *Server) {
		owner := newSrv("owner", urls)
		st, err := owner.Jobs().Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, owner.Jobs(), st.ID, 60*time.Second)
		got, err := owner.Jobs().Status(api.DefaultTenant, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != api.JobSucceeded {
			t.Fatalf("peers=%d: state %q (%s)", len(urls), got.State, got.Error)
		}
		info, err := owner.Registry().Info(api.DefaultTenant, "shard-e2e")
		if err != nil {
			t.Fatal(err)
		}
		return info.Version, owner
	}
	run := func(t *testing.T, peers int) string {
		var urls []string
		var peerSrvs []*Server
		for i := 0; i < peers; i++ {
			ps := newSrv(fmt.Sprintf("peer-%d", i), nil)
			hs := httptest.NewServer(ps.Handler())
			t.Cleanup(hs.Close)
			urls = append(urls, hs.URL)
			peerSrvs = append(peerSrvs, ps)
		}
		version, owner := flow(t, urls)
		if peers > 0 {
			// Guard against a dispatcher that silently does everything
			// locally (which would also pass the bit-identity check).
			if d := owner.Metrics().Snapshot().MCShardsDispatched; d == 0 {
				t.Errorf("peers=%d: owner dispatched no shards", peers)
			}
			var served int64
			for _, ps := range peerSrvs {
				served += ps.Metrics().Snapshot().MCShardsServed
			}
			if served == 0 {
				t.Errorf("peers=%d: no peer served a shard", peers)
			}
		}
		return version
	}
	base := run(t, 0) // single replica
	for _, peers := range []int{1, 3} {
		if v := run(t, peers); v != base {
			t.Errorf("%d-replica layout: model version %s, single-node %s — results not bit-identical",
				peers+1, v, base)
		}
	}

	// A peer on another build answers every shard with one-column rows,
	// which the wire format accepts. The owner must evaluate those
	// shards itself rather than panic indexing the second metric.
	var asked atomic.Int64
	ragged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sr api.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		asked.Add(1)
		rows := make([]string, sr.Hi-sr.Lo)
		for k := range rows {
			rows[k] = api.EncodeFloats([]float64{1})
		}
		json.NewEncoder(w).Encode(api.ShardResponse{Rows: rows})
	}))
	t.Cleanup(ragged.Close)
	v, owner := flow(t, []string{ragged.URL})
	if v != base {
		t.Errorf("owner with a ragged peer: model version %s, single-node %s", v, base)
	}
	if asked.Load() == 0 {
		t.Error("the ragged peer was never asked for a shard")
	}
	// Every rejected shard shows in the owner's counters as a fallback,
	// not as healthy dispatch.
	if m := owner.Metrics().Snapshot(); m.MCShardsFallback != asked.Load() || m.MCShardsDispatched != 0 {
		t.Errorf("ragged peer asked %d times: owner counted %d fallbacks, %d dispatched; want %d, 0",
			asked.Load(), m.MCShardsFallback, m.MCShardsDispatched, asked.Load())
	}
}

// TestEvalShardOTAMatchesOwner: a peer answering a shard of OTA samples
// returns the owner's bits, because every sample starts Newton from its
// design's nominal operating point whichever replica and workspace runs
// it, and the peer folds its request's solver work into its registry.
func TestEvalShardOTAMatchesOwner(t *testing.T) {
	srv := New(Config{Store: store.NewMemory(), DataDir: t.TempDir(), Logger: quietLog()})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	genes := []float64{0.4, 0.3, 0.6, 0.5, 0.2, 0.7, 0.5, 0.5}
	const seed, lo, hi = 41, 7, 19
	resp, err := srv.evalShard(context.Background(), api.ShardRequest{
		Problem: "ota", Process: "c35", Genes: api.EncodeFloats(genes), Seed: seed, Lo: lo, Hi: hi,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The owner's worker ran another design first and meets the range
	// in the opposite order.
	owner, proc, ws := core.NewOTAProblem(), process.C35(), analysis.NewWorkspace()
	if _, err := owner.EvaluateWS([]float64{0.6, 0.6, 0.2, 0.3, 0.5, 0.5, 0.4, 0.4}, proc.NewSample(3, 0), ws); err != nil {
		t.Fatal(err)
	}
	for i := hi - 1; i >= lo; i-- {
		want, err := owner.EvaluateWS(genes, proc.NewSample(seed, i), ws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := api.DecodeFloats(resp.Rows[i-lo])
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("sample %d metric %d: peer %v, owner %v", i, k, got[k], want[k])
			}
		}
	}
	if m := srv.Metrics().Snapshot(); m.OPSolves != hi-lo+1 || m.OPWarmFallbacks != 0 || m.OPIterations <= m.OPSolves {
		t.Errorf("peer counted %d solves, %d iterations, %d fallbacks; want %d solves (one nominal), none falling back",
			m.OPSolves, m.OPIterations, m.OPWarmFallbacks, hi-lo+1)
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
	// Wait until the flow has mirrored at least one checkpoint into the
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
	// The adopted run resumed from A's mirrored checkpoint rather than
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
		t.Error("adopted job did not resume from the mirrored checkpoint")
	}
}

// TestClusterChaosTakeoverBitIdentical is the chaos e2e: a replica
// "dies" mid-Monte-Carlo (crashForTest leaves its lease and job record
// behind, exactly as SIGKILL would), a survivor sharing the store
// adopts the job once the TTL lapses, resumes from the mirrored
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
	base, regBase := newClusterJM(t, store.NewMemory(), "base", time.Minute,
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
// /debug/vars is gone.
func TestClusterHealthExposition(t *testing.T) {
	get := func(srv *Server, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	shutdown := func(srv *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}

	single := New(Config{Store: store.NewMemory(), DataDir: t.TempDir(), Logger: quietLog()})
	t.Cleanup(func() { shutdown(single) })
	clustered := New(Config{Store: store.NewMemory(), DataDir: t.TempDir(),
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
	}
	if !strings.Contains(get(clustered, "/metrics").Body.String(), `ayd_replica_info{replica="r9"} 1`) {
		t.Error("cluster /metrics lacks ayd_replica_info for r9")
	}
}
