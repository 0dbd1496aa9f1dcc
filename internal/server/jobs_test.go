package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
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

// newTestJM builds a JobManager over a fresh registry. problems maps
// names to factories; the process registry always carries "c35".
func newTestJM(t *testing.T, workers, depth int, problems map[string]ProblemFactory) (*JobManager, *Registry) {
	t.Helper()
	reg := NewRegistry(store.OpenDisk(t.TempDir()), 8)
	m := NewJobManager(t.TempDir(), workers, depth, reg,
		problems, map[string]ProcessFactory{"c35": process.C35},
		&core.Metrics{}, quietLog())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		reg.Close()
	})
	return m, reg
}

func synthFactory() map[string]ProblemFactory {
	return map[string]ProblemFactory{
		"synth": func() core.CircuitProblem { return synthProblem{} },
	}
}

func smallFlowReq(model string) api.FlowRequest {
	return api.FlowRequest{
		TenantRef:   api.TenantRef{Model: model},
		Problem:     "synth",
		PopSize:     24,
		Generations: 10,
		MCSamples:   20,
		Seed:        1,
	}
}

func TestJobLifecycleSucceeds(t *testing.T) {
	m, reg := newTestJM(t, 2, 8, synthFactory())

	st, err := m.Submit(smallFlowReq("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobQueued && st.State != api.JobRunning {
		t.Fatalf("initial state %q", st.State)
	}
	if st.Checkpoint == "" {
		t.Error("no checkpoint path assigned")
	}
	waitDone(t, m, st.ID, 30*time.Second)

	got, err := m.Status(api.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobSucceeded {
		t.Fatalf("state = %q (%s), want succeeded", got.State, got.Error)
	}
	if got.Evaluations != 24*10 {
		t.Errorf("Evaluations = %d, want 240", got.Evaluations)
	}
	if got.ParetoPoints < 4 {
		t.Errorf("ParetoPoints = %d, want ≥ 4", got.ParetoPoints)
	}
	if got.Finished.Before(got.Started) || got.Started.Before(got.Created) {
		t.Error("timestamps out of order")
	}

	// The finished model is installed and queryable.
	if _, err := reg.Info(api.DefaultTenant, "m1"); err != nil {
		t.Fatalf("model not installed: %v", err)
	}

	// The event stream is contiguous and carries the full lifecycle.
	j, err := m.get(api.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	evs := j.eventsSince(0)
	seen := map[string]bool{}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has Seq %d, want contiguous from 1", i, ev.Seq)
		}
		seen[ev.Type] = true
	}
	for _, want := range []string{
		api.EventJobQueued, api.EventJobStarted, api.EventStageStart,
		api.EventGeneration, api.EventCheckpointSaved, api.EventMCPoint,
		api.EventStageEnd, api.EventJobDone,
	} {
		if !seen[want] {
			t.Errorf("no %q event in stream", want)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != api.EventJobDone || last.State != api.JobSucceeded {
		t.Errorf("last event = %+v, want job_done/succeeded", last)
	}
}

func TestJobCancelQueuedAndRunning(t *testing.T) {
	bp := newBlockingProblem()
	m, _ := newTestJM(t, 1, 8, map[string]ProblemFactory{
		"synth": func() core.CircuitProblem { return bp },
	})

	a, err := m.Submit(smallFlowReq("job-a"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bp.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job A never started evaluating")
	}

	// B sits behind A on the single worker: cancelling it is immediate.
	b, err := m.Submit(smallFlowReq("job-b"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(api.DefaultTenant, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCancelled {
		t.Fatalf("queued cancel: state %q", st.State)
	}
	waitDone(t, m, b.ID, time.Second)

	// A is mid-evaluation: cancellation is cooperative, taking effect at
	// the next generation boundary once evaluations are released.
	if _, err := m.Cancel(api.DefaultTenant, a.ID); err != nil {
		t.Fatal(err)
	}
	close(bp.release)
	waitDone(t, m, a.ID, 30*time.Second)
	st, err = m.Status(api.DefaultTenant, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCancelled {
		t.Fatalf("running cancel: state %q (%s)", st.State, st.Error)
	}

	// Cancelling a terminal job is a no-op.
	st, err = m.Cancel(api.DefaultTenant, a.ID)
	if err != nil || st.State != api.JobCancelled {
		t.Errorf("terminal cancel: state %q, err %v", st.State, err)
	}

	// List preserves submission order.
	list := m.List(api.DefaultTenant)
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Errorf("List out of order: %+v", list)
	}
}

func TestJobQueueFull(t *testing.T) {
	bp := newBlockingProblem()
	m, _ := newTestJM(t, 1, 1, map[string]ProblemFactory{
		"synth": func() core.CircuitProblem { return bp },
	})

	a, err := m.Submit(smallFlowReq("qa"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bp.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job A never started evaluating")
	}
	b, err := m.Submit(smallFlowReq("qb"))
	if err != nil {
		t.Fatalf("second submission should queue: %v", err)
	}
	if _, err := m.Submit(smallFlowReq("qc")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}

	close(bp.release)
	waitDone(t, m, a.ID, 30*time.Second)
	waitDone(t, m, b.ID, 30*time.Second)
	for _, id := range []string{a.ID, b.ID} {
		st, serr := m.Status(api.DefaultTenant, id)
		if serr != nil || st.State != api.JobSucceeded {
			t.Errorf("%s: state %q err %v (%s)", id, st.State, serr, st.Error)
		}
	}
}

// TestJobMCStrategy: flows run plain Monte Carlo only. A request that
// names any other estimator, or a junk one, gets 422 naming
// core.ErrMCStrategy before a job exists, instead of quietly running naive;
// "" and "naive" are accepted and run.
func TestJobMCStrategy(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), Metrics: &core.Metrics{}, Logger: quietLog(),
		FlowWorkers: 1, Problems: synthFactory()})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(strategy string) (int, []byte) {
		t.Helper()
		flow := smallFlowReq("mc-" + strings.ReplaceAll(strategy, "+", "-"))
		flow.MCStrategy = strategy
		body, err := json.Marshal(flow)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/flows", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	for _, strategy := range []string{"is", "surrogate", "is+surrogate", "qmc"} {
		status, body := post(strategy)
		var apiErr api.Error
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("mc_strategy %q: status %d, body is not an api.Error: %s", strategy, status, body)
		}
		if status != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Message, core.ErrMCStrategy.Error()) {
			t.Errorf("mc_strategy %q: status %d, error %q; want 422 naming %q", strategy, status, apiErr.Message, core.ErrMCStrategy)
		}
	}
	if jobs := srv.Jobs().List(api.DefaultTenant); len(jobs) != 0 {
		t.Fatalf("%d jobs created by refused requests", len(jobs))
	}
	for _, strategy := range []string{"", "naive"} {
		status, body := post(strategy)
		if status != http.StatusAccepted {
			t.Fatalf("mc_strategy %q: status %d (%s), want 202", strategy, status, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		waitDone(t, srv.Jobs(), st.ID, 30*time.Second)
		if got, err := srv.Jobs().Status(api.DefaultTenant, st.ID); err != nil || got.State != api.JobSucceeded {
			t.Errorf("mc_strategy %q: job %+v, err %v; want succeeded", strategy, got, err)
		}
	}
}

// TestJobRecordWithRetiredCacheSize: a request or stored job record
// written while flows still took a "cache_size" decodes and runs; the
// genome cache is always on at its fixed bound.
func TestJobRecordWithRetiredCacheSize(t *testing.T) {
	m, _ := newTestJM(t, 1, 4, synthFactory())
	rec := `{"problem":"synth","model":"legacy","pop_size":24,"generations":10,"mc_samples":20,"seed":1,"cache_size":-1}`
	var req api.FlowRequest
	if err := json.Unmarshal([]byte(rec), &req); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID, 30*time.Second)
	got, err := m.Status(api.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobSucceeded || got.Evaluations != 24*10 {
		t.Errorf("state %q (%s), %d evaluations; want succeeded with 240", got.State, got.Error, got.Evaluations)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	m, _ := newTestJM(t, 1, 4, synthFactory())
	if _, err := m.Submit(api.FlowRequest{Problem: "no-such"}); err == nil {
		t.Error("unknown problem accepted")
	}
	if _, err := m.Submit(api.FlowRequest{Problem: "synth", Process: "no-such"}); err == nil {
		t.Error("unknown process accepted")
	}
	req := smallFlowReq("bad")
	req.PopSize = -1
	if _, err := m.Submit(req); err == nil {
		t.Error("negative PopSize accepted")
	}
	req = smallFlowReq("../escape")
	if _, err := m.Submit(req); err == nil {
		t.Error("path-escaping model name accepted")
	}
	if _, err := m.Status(api.DefaultTenant, "job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: err = %v, want ErrUnknownJob", err)
	}
}
