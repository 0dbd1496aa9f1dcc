package server

import (
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/process"
	"analogyield/internal/server/api"
)

// quietLog keeps the structured request/job log out of test output.
func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// synthProblem mirrors the fast analytic stand-in used by core's own
// tests: two conflicting objectives over three parameters with a small
// process-dependent perturbation, so a whole flow runs in milliseconds.
//
// perf0 = 45 + 10·g0 − 5·g1², perf1 = 85 − 12·g0 − 5·g1²; the front
// lies along g1 = 0, trading perf0 against perf1 with
// perf1 = 85 − 1.2·(perf0 − 45).
type synthProblem struct{}

func (synthProblem) ParamNames() []string     { return []string{"P1", "P2", "P3"} }
func (synthProblem) ObjectiveNames() []string { return []string{"gain_db", "pm_deg"} }
func (synthProblem) Maximize() []bool         { return []bool{true, true} }
func (synthProblem) ParamUnits() []string     { return []string{"um", "um", "um"} }

func (synthProblem) Evaluate(g []float64, s *process.Sample) ([]float64, error) {
	noise0, noise1 := 0.0, 0.0
	if s != nil {
		sh := s.DeviceShift(process.NMOS, 10e-6, 1e-6)
		noise0 = sh.DVth * 3
		noise1 = sh.DBeta * 4
	}
	pen := 5 * g[1] * g[1]
	return []float64{45 + 10*g[0] - pen + noise0, 85 - 12*g[0] - pen + noise1}, nil
}

func (synthProblem) Denormalize(g []float64) ([]float64, error) {
	out := make([]float64, len(g))
	for i, x := range g {
		out[i] = 10 + 50*x
	}
	return out, nil
}

// blockingProblem gates every evaluation on release, so a test can hold
// a job mid-flight deterministically: wait on started to know the
// worker has picked the job up, close release to let it finish (or see
// a cancellation at the next generation boundary).
type blockingProblem struct {
	synthProblem
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newBlockingProblem() *blockingProblem {
	return &blockingProblem{
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (b *blockingProblem) Evaluate(g []float64, s *process.Sample) ([]float64, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.synthProblem.Evaluate(g, s)
}

// slowMCProblem delays only Monte Carlo evaluations (nominal MOO calls
// pass a nil sample), so a flow lingers in the MC stage long enough for
// a test to shut the server down mid-stage.
type slowMCProblem struct {
	synthProblem
	delay time.Duration
}

func (p slowMCProblem) Evaluate(g []float64, s *process.Sample) ([]float64, error) {
	if s != nil {
		time.Sleep(p.delay)
	}
	return p.synthProblem.Evaluate(g, s)
}

// synthModel builds a small table model analytically (no flow run):
// n points along the synthetic front, perf0 ∈ [45, 55].
func synthModel(t *testing.T, n int) *core.Model {
	t.Helper()
	pts := make([]core.ParetoPoint, n)
	for i := range pts {
		x := float64(i) / float64(n-1)
		pts[i] = core.ParetoPoint{
			Params:   []float64{10 + 50*x, 10, 10},
			Perf:     [2]float64{45 + 10*x, 85 - 12*x},
			DeltaPct: [2]float64{1.0 + 0.2*x, 0.5 + 0.1*x},
		}
	}
	m, err := core.BuildModel(pts,
		[]string{"gain_db", "pm_deg"},
		[]string{"P1", "P2", "P3"},
		[]string{"um", "um", "um"},
		core.ModelOptions{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	return m
}

// waitDone blocks until the job reaches a terminal state or the test
// deadline expires.
func waitDone(t *testing.T, m *JobManager, id string, timeout time.Duration) {
	t.Helper()
	ch, err := m.Done(api.DefaultTenant, id)
	if err != nil {
		t.Fatalf("Done(%s): %v", id, err)
	}
	select {
	case <-ch:
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish within %s", id, timeout)
	}
}
