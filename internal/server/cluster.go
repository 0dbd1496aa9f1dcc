// Cluster mode: several ayd replicas sharing one artefact store
// coordinate through store leases (who owns which flow job) and spread
// each job's Monte Carlo stage across the fleet over an internal HTTP
// route. The moving parts live here:
//
//   - handleShardEval serves POST /internal/mc/shard — a peer asks this
//     replica to evaluate samples [lo, hi) of one Pareto point. The
//     evaluation uses the exact per-(seed, index) sample derivation the
//     owner would use locally, so the answer is bit-identical to local
//     work (montecarlo.RunBatchDistributed's correctness contract).
//   - httpShardDispatcher is the owner's side: it implements
//     montecarlo.ShardDispatcher by round-robining shard requests over
//     the configured peers, degrading any failure to local fallback.
//   - The JobManager's lease lifecycle (jobs.go) keeps exactly one
//     replica running each job: acquire on submit, heartbeat at TTL/3,
//     fenced checkpoint writes, release-keep-record on drain, and a
//     takeover scanner that adopts jobs whose lease lapsed.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"analogyield/internal/analysis"
	"analogyield/internal/core"
	"analogyield/internal/montecarlo"
	"analogyield/internal/process"
	"analogyield/internal/server/api"
)

// maxShardSamples bounds one shard request's sample count — a malformed
// request must not pin a replica on an unbounded loop.
const maxShardSamples = 1 << 20

// defaultLeaseTTL is the job-lease heartbeat window when Config.LeaseTTL
// is zero: long enough that three missed heartbeats (TTL/3 cadence)
// precede a takeover, short enough that a crashed replica's jobs are
// adopted within seconds.
const defaultLeaseTTL = 15 * time.Second

// evalShard answers one peer shard request. The problem and process are
// constructed fresh per request (factories are cheap) and samples are
// evaluated sequentially on the request goroutine — the server's
// concurrency comes from many in-flight shard requests, not from
// fan-out inside one.
func (s *Server) evalShard(ctx context.Context, req api.ShardRequest) (*api.ShardResponse, error) {
	pf, ok := s.cfg.Problems[req.Problem]
	if !ok {
		return nil, fmt.Errorf("server: unknown problem %q", req.Problem)
	}
	prf, ok := s.cfg.Processes[req.Process]
	if !ok {
		return nil, fmt.Errorf("server: unknown process %q", req.Process)
	}
	if req.Lo < 0 || req.Hi < req.Lo || req.Hi-req.Lo > maxShardSamples {
		return nil, fmt.Errorf("server: bad shard range [%d, %d)", req.Lo, req.Hi)
	}
	genes, err := api.DecodeFloats(req.Genes)
	if err != nil {
		return nil, err
	}
	problem, proc := pf(), prf()
	// One workspace serves the whole request, as one worker's does on
	// the owner: the design's nominal operating point is solved once,
	// and every sample starts from it exactly as it would locally.
	ws := analysis.NewWorkspace()
	defer func() { s.cfg.Metrics.AddOPStats(ws.Stats()) }()
	eval := func(smp *process.Sample) ([]float64, error) { return problem.Evaluate(genes, smp) }
	if we, ok := problem.(core.WorkspaceEvaluator); ok {
		eval = func(smp *process.Sample) ([]float64, error) { return we.EvaluateWS(genes, smp, ws) }
	}
	rows := make([]string, req.Hi-req.Lo)
	for i := req.Lo; i < req.Hi; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := eval(proc.NewSample(req.Seed, i))
		if err != nil {
			continue // "" row = failed sample, exactly as a local failure
		}
		rows[i-req.Lo] = api.EncodeFloats(m)
	}
	s.cfg.Metrics.IncMCShardsServed()
	return &api.ShardResponse{Rows: rows}, nil
}

func (s *Server) handleShardEval(w http.ResponseWriter, r *http.Request) {
	var req api.ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, decodeStatus(err), "bad request body: %v", err)
		return
	}
	resp, err := s.evalShard(r.Context(), req)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// httpShardDispatcher farms Monte Carlo shards to peer replicas over
// POST /internal/mc/shard. One dispatcher is built per flow job (it
// carries the job's problem/process names); the peer list and HTTP
// client are shared across jobs. Safe for concurrent use.
type httpShardDispatcher struct {
	peers   []string // peer base URLs
	client  *http.Client
	metrics *core.Metrics
	req     api.ShardRequest // template: tenant/problem/process filled in
	next    atomic.Uint64
}

func (d *httpShardDispatcher) Shards() int { return len(d.peers) }

// EvalShard sends one shard to the next peer in round-robin order. Any
// failure — transport, non-200, undecodable or short response — returns
// an error; the scheduler then evaluates the range locally, so a dead
// peer costs throughput, never correctness.
func (d *httpShardDispatcher) EvalShard(ctx context.Context, genes []float64, seed int64, lo, hi int) ([][]float64, error) {
	peer := d.peers[int(d.next.Add(1)-1)%len(d.peers)]
	wreq := d.req
	wreq.Genes = api.EncodeFloats(genes)
	wreq.Seed, wreq.Lo, wreq.Hi = seed, lo, hi
	body, err := json.Marshal(wreq)
	if err != nil {
		return nil, err
	}
	rows, err := d.post(ctx, peer, body, hi-lo)
	if err != nil {
		d.metrics.IncMCShardsFallback()
		return nil, err
	}
	d.metrics.IncMCShardsDispatched()
	return rows, nil
}

func (d *httpShardDispatcher) post(ctx context.Context, peer string, body []byte, want int) ([][]float64, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/internal/mc/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: peer %s: HTTP %d", peer, resp.StatusCode)
	}
	var wresp api.ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&wresp); err != nil {
		return nil, fmt.Errorf("server: peer %s: %w", peer, err)
	}
	if len(wresp.Rows) != want {
		return nil, fmt.Errorf("server: peer %s: %d rows, want %d", peer, len(wresp.Rows), want)
	}
	rows := make([][]float64, want)
	for k, enc := range wresp.Rows {
		if enc == "" {
			continue // failed sample
		}
		row, err := api.DecodeFloats(enc)
		if err != nil {
			return nil, fmt.Errorf("server: peer %s: %w", peer, err)
		}
		rows[k] = row
	}
	return rows, nil
}

// newShardDispatcher builds one job's dispatcher, or nil when the
// server has no peers (single-node: the flow runs plain RunBatch).
func (m *JobManager) newShardDispatcher(tenant, problem, proc string) montecarlo.ShardDispatcher {
	cl := m.cluster
	if cl == nil || len(cl.peers) == 0 {
		return nil
	}
	return &httpShardDispatcher{
		peers:   cl.peers,
		client:  cl.client,
		metrics: m.metrics,
		req:     api.ShardRequest{Tenant: tenant, Problem: problem, Process: proc},
	}
}
