package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
)

// TestShutdownMidMCLeavesResumableCheckpoint kills a server while a
// flow is in its Monte Carlo stage and verifies the paper flow's
// crash-consistency contract end to end: the cooperative cancellation
// leaves a checkpoint on disk, and a fresh server given the same
// request resumes from it instead of restarting.
func TestShutdownMidMCLeavesResumableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	req := api.FlowRequest{
		TenantRef:       api.TenantRef{Model: "ckpt-model"},
		Problem:         "synth",
		PopSize:         24,
		Generations:     8,
		MCSamples:       60,
		Seed:            3,
		Workers:         1,
		CheckpointEvery: 1,
	}

	// Server 1 runs the problem with slowed-down Monte Carlo
	// evaluations, so the flow is reliably mid-MC when shutdown hits.
	slow := map[string]ProblemFactory{
		"synth": func() core.CircuitProblem {
			return slowMCProblem{delay: 2 * time.Millisecond}
		},
	}
	srv1 := New(Config{ModelsDir: dir, FlowWorkers: 1, Problems: slow,
		Metrics: &core.Metrics{}, Logger: quietLog()})
	st, err := srv1.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first completed MC point (the ParetoPoints counter
	// ticks on each MCPointDone), then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, serr := srv1.Jobs().Status(api.DefaultTenant, st.ID)
		if serr != nil {
			t.Fatal(serr)
		}
		if got.ParetoPoints >= 1 {
			break
		}
		if api.Terminal(got.State) {
			t.Fatalf("job finished before shutdown could interrupt it: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("no MC point completed in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	got, err := srv1.Jobs().Status(api.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobCancelled {
		t.Fatalf("after shutdown: state %q (%s), want cancelled", got.State, got.Error)
	}
	if _, err := os.Stat(got.Checkpoint); err != nil {
		t.Fatalf("no checkpoint left behind: %v", err)
	}

	// Server 2 shares the data directory. Resubmitting the identical
	// request (same budgets and seed → same config fingerprint) must
	// resume from the checkpoint and finish the model.
	srv2 := New(Config{ModelsDir: dir, FlowWorkers: 1, Problems: synthFactory(),
		Metrics: &core.Metrics{}, Logger: quietLog()})
	defer func() {
		ctx2, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel2()
		if err := srv2.Shutdown(ctx2); err != nil {
			t.Errorf("srv2 Shutdown: %v", err)
		}
	}()

	st2, err := srv2.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv2.Jobs(), st2.ID, 60*time.Second)
	fin, err := srv2.Jobs().Status(api.DefaultTenant, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded {
		t.Fatalf("resumed job: state %q (%s)", fin.State, fin.Error)
	}
	if !fin.Resumed {
		t.Error("resumed job did not report Resumed")
	}
	j, err := srv2.Jobs().get(api.DefaultTenant, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	sawResume := false
	for _, ev := range j.eventsSince(0) {
		if ev.Type == api.EventFlowResumed {
			sawResume = true
			break
		}
	}
	if !sawResume {
		t.Error("no flow_resumed event in the resumed job's stream")
	}

	// The finished model answers queries on the second server.
	if _, err := srv2.Registry().Info(api.DefaultTenant, "ckpt-model"); err != nil {
		t.Fatalf("model not installed after resume: %v", err)
	}
}

// TestListenerShardsSingle boots a server on its one listener, proves
// a real query flows through it, and then verifies graceful shutdown
// closes the socket within the drain budget: a dial after Shutdown
// must be refused, not left hanging in an accept queue nobody reads.
func TestListenerShardsSingle(t *testing.T) {
	srv := New(Config{
		Addr:         "127.0.0.1:0",
		DrainTimeout: 5 * time.Second,
		Metrics:      &core.Metrics{},
		Logger:       quietLog(),
	})
	if _, err := srv.Registry().Install(api.DefaultTenant, "listen", synthModel(t, 16)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/v1/models/listen")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models/listen: status %d", resp.StatusCode)
	}

	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %s, over the 5s budget", elapsed)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial after shutdown succeeded: the listener is still open")
	}
}
