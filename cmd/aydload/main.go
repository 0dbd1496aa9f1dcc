// Command aydload is an open-loop load generator and capacity-sweep
// harness for the ayd yield-query service. It fires POST /v1/yield/query
// requests at a fixed target rate — arrivals are scheduled by the
// clock, not by completions, so a slow server faces a growing backlog
// exactly as it would in production — and reports the latency
// distribution (p50/p95/p99 via the same fixed-bucket histogram the
// server uses for its own route metrics) together with the achieved
// throughput.
//
// Latency is coordination-omission-aware: each request's latency is
// measured from its *scheduled* arrival time, so when the generator or
// the server falls behind, the backlog shows up as latency instead of
// silently stretching the measurement interval.
//
// Usage:
//
//	aydload [-url http://127.0.0.1:8080] [-addr 127.0.0.1:0] [-qps 2000]
//	        [-duration 10s] [-warmup 1s] [-inflight 256] [-conns N]
//	        [-model loadtest] [-o result.json]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Capacity-sweep mode:
//
//	aydload -sweep [-sweep-start 2000] [-sweep-factor 2] [-sweep-max 1e6]
//	        [-sweep-refine 2] [-slo-p99 2ms] [-error-budget 0.01]
//	        [-duration 5s] [-warmup 1s] [-addr 127.0.0.1:0] [-o BENCH_capacity.json]
//
// -sweep ramps the target rate geometrically (then bisects between the
// last passing and first failing step) until p99 exceeds -slo-p99 or
// the error+shed fraction exceeds -error-budget, and reports the full
// qps-vs-p50/p95/p99 curve plus the detected knee — the highest load
// the server sustains inside the SLO. scripts/capacity.sh wraps this
// into benchmarks/BENCH_capacity.json.
//
// Soak mode:
//
//	aydload -soak -addr 127.0.0.1:0 [-duration 60s] [-qps 500] [-inflight 64]
//	        [-o benchmarks/SOAK.json]
//
// -soak is the leak hunter the in-process benchmarks cannot be: it holds
// one separate serving process (-addr, or -url) at -qps for -duration in
// back-to-back 2 s windows, scrapes the target's go_goroutines and
// process_resident_memory_bytes from /metrics after each window, and
// submits a small ota flow every 15 s. Samples after the first quarter
// of the run must show goroutine growth ≤ 50, RSS growth ≤ 35%, a
// late-vs-early p99 drift ≤ 300% and errors ≤ 1%; a run with no
// readings fails, and so does a spawned child that exits non-zero (a
// -race build that saw a data race exits 66). scripts/soak-smoke.sh
// wraps this into benchmarks/SOAK.json. -warmup does not apply: the
// first quarter is the warm-up.
//
// With no -url, aydload starts an in-process server on a loopback port,
// installs a synthetic behavioural model and drives that — a
// self-contained smoke mode used by scripts/loadtest.sh and CI. The
// report marks this mode in_process: true because no packet crosses the
// kernel's TCP stack between two processes.
//
// With -addr, aydload instead re-executes itself as a *separate*
// serving process (the same internal/server stack the ayd binary runs)
// bound to the given address, waits for it to come up, and drives it
// over real TCP — syscalls, loopback queueing, connection pool and
// all. That is the over-the-wire measurement (in_process: false)
// recorded in benchmarks/BENCH_serve_net.json and BENCH_capacity.json.
// The in-process server and the -addr child keep their artefact store
// in a temporary directory removed at exit. -url still targets any
// externally managed server.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/pacer"
	"analogyield/internal/server"
	"analogyield/internal/server/api"
)

// result is the machine-readable single-run report
// (benchmarks/BENCH_serve.json).
type result struct {
	URL         string                 `json:"url"`
	Model       string                 `json:"model"`
	TargetQPS   float64                `json:"target_qps"`
	DurationSec float64                `json:"duration_s"`
	Requests    int64                  `json:"requests"`
	Errors      int64                  `json:"errors"`
	Shed        int64                  `json:"shed"` // arrivals dropped at the in-flight cap
	AchievedQPS float64                `json:"achieved_qps"`
	Batch       int                    `json:"batch,omitempty"` // >1: queries per request; qps counts queries
	Latency     core.HistogramSnapshot `json:"latency"`
	InProcess   bool                   `json:"in_process,omitempty"`
}

// step is one rung of the capacity sweep.
type step struct {
	TargetQPS   float64                `json:"target_qps"`
	AchievedQPS float64                `json:"achieved_qps"`
	Requests    int64                  `json:"requests"`
	Errors      int64                  `json:"errors"`
	Shed        int64                  `json:"shed"`
	Latency     core.HistogramSnapshot `json:"latency"`
	SLOMet      bool                   `json:"slo_met"`
	Attempt     int                    `json:"attempt,omitempty"` // >0: retry of the same rung
}

// capacityResult is the sweep report (benchmarks/BENCH_capacity.json):
// the full qps-vs-latency curve, the knee, and enough configuration to
// reproduce the run.
type capacityResult struct {
	URL           string  `json:"url"`
	Model         string  `json:"model"`
	InProcess     bool    `json:"in_process,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Conns         int     `json:"conns"`
	Inflight      int     `json:"inflight"`
	Batch         int     `json:"batch,omitempty"` // >1: queries per request; qps counts queries
	StepSec       float64 `json:"step_duration_s"`
	WarmupSec     float64 `json:"warmup_s"`
	SLOP99Millis  float64 `json:"slo_p99_ms"`
	ErrorBudget   float64 `json:"error_budget"`
	GOGC          string  `json:"gogc,omitempty"`       // env at run time; inherited by the spawned server
	GOMEMLIMIT    string  `json:"gomemlimit,omitempty"` // ditto; GOGC=off + GOMEMLIMIT is the memory-limit-only GC mode
	Steps         []step  `json:"steps"`
	KneeTargetQPS float64 `json:"knee_target_qps"`
	KneeQPS       float64 `json:"knee_qps"` // achieved qps at the knee
	Knee          *step   `json:"knee,omitempty"`
}

// serveEnv marks the re-executed serving child and carries the listen
// address the parent chose; modelEnv carries the model name.
const (
	serveEnv        = "AYDLOAD_SERVE"
	modelEnv        = "AYDLOAD_MODEL"
	childProfileEnv = "AYDLOAD_CHILD_CPUPROFILE"
)

func main() {
	if addr := os.Getenv(serveEnv); addr != "" {
		// AYDLOAD_CHILD_CPUPROFILE profiles the serving side of an
		// -addr run — the -cpuprofile flag only covers the load
		// generator's own process.
		if prof := os.Getenv(childProfileEnv); prof != "" {
			if f, err := os.Create(prof); err == nil {
				if pprof.StartCPUProfile(f) == nil {
					defer pprof.StopCPUProfile()
				}
			}
		}
		if err := serveChild(addr, os.Getenv(modelEnv)); err != nil {
			fmt.Fprintln(os.Stderr, "aydload (serve child):", err)
			os.Exit(1)
		}
		return
	}
	var (
		url      = flag.String("url", "", "target server base URL (empty: start an in-process server)")
		addr     = flag.String("addr", "", "spawn a separate serving process bound to this address (e.g. 127.0.0.1:0) and drive it over TCP")
		qps      = flag.Float64("qps", 2000, "target arrival rate (open loop; single-run mode)")
		duration = flag.Duration("duration", 10*time.Second, "test length (per step in -sweep mode)")
		warmup   = flag.Duration("warmup", time.Second, "unrecorded warm-up before each measured run/step (0 = none)")
		inflight = flag.Int("inflight", 64, "worker/connection count = max concurrent requests; arrivals past a deep backlog are shed and counted")
		batch    = flag.Int("batch", 1, "queries per request: N>1 posts {\"queries\":[...]} bodies to the same endpoint, -qps then counts queries/s (the optimizer-loop shape; the SLO still bounds per-request p99)")
		conns    = flag.Int("conns", 0, "client connection fan-out: MaxConnsPerHost/MaxIdleConnsPerHost (0 = -inflight)")
		model    = flag.String("model", "loadtest", "model name to query")
		out      = flag.String("o", "", "write the JSON report here (default stdout)")

		soak        = flag.Bool("soak", false, "soak one -addr or -url target: hold -qps for -duration, fail on goroutine/RSS growth, p99 drift, errors or a failed child")
		sweep       = flag.Bool("sweep", false, "capacity sweep: ramp target qps until the SLO breaks, report the curve and knee")
		sweepStart  = flag.Float64("sweep-start", 2000, "first sweep step's target qps")
		sweepFactor = flag.Float64("sweep-factor", 2, "geometric ramp factor between sweep steps (> 1)")
		sweepMax    = flag.Float64("sweep-max", 1e6, "stop sweeping past this target qps even inside the SLO")
		sweepRefine = flag.Int("sweep-refine", 2, "bisection steps between the last passing and first failing rung")
		sweepRetry  = flag.Int("sweep-retries", 0, "re-run a failing rung up to N times (a host-scheduling stall on shared hardware poisons a whole rung; every attempt is recorded)")
		sloP99      = flag.Duration("slo-p99", 2*time.Millisecond, "sweep SLO: p99 latency bound")
		errBudget   = flag.Float64("error-budget", 0.01, "sweep SLO: max (errors+shed)/arrivals fraction")

		cpuprofile = flag.String("cpuprofile", "", "write the load generator's CPU profile here")
		memprofile = flag.String("memprofile", "", "write the load generator's heap profile here (at exit)")
	)
	flag.Parse()
	if *url != "" && *addr != "" {
		fmt.Fprintln(os.Stderr, "aydload: -url and -addr are mutually exclusive")
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aydload:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aydload:", err)
			os.Exit(1)
		}
	}
	cfg := runConfig{
		url: *url, addr: *addr, qps: *qps,
		duration: *duration, warmup: *warmup,
		inflight: *inflight, batch: *batch, conns: *conns,
		model: *model, out: *out, soak: *soak,
		sweep: *sweep, sweepStart: *sweepStart, sweepFactor: *sweepFactor,
		sweepMax: *sweepMax, sweepRefine: *sweepRefine, sweepRetries: *sweepRetry,
		sloP99: *sloP99, errBudget: *errBudget,
	}
	err := run(cfg)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if f, ferr := os.Create(*memprofile); ferr == nil {
			runtime.GC()
			pprof.WriteHeapProfile(f) //nolint:errcheck // best-effort diagnostic
			f.Close()
		} else {
			fmt.Fprintln(os.Stderr, "aydload:", ferr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aydload:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	url, addr             string
	qps                   float64
	duration, warmup      time.Duration
	inflight, conns       int
	batch                 int
	model, out            string
	soak, sweep           bool
	sweepStart            float64
	sweepFactor, sweepMax float64
	sweepRefine           int
	sweepRetries          int
	sloP99                time.Duration
	errBudget             float64
}

func run(cfg runConfig) error {
	if cfg.soak && (cfg.sweep || (cfg.url == "") == (cfg.addr == "")) {
		// Soaking the load generator's own process would measure nothing.
		return fmt.Errorf("-soak takes one -addr or -url target and no -sweep")
	}
	if !cfg.sweep && cfg.qps <= 0 {
		return fmt.Errorf("non-positive -qps %g", cfg.qps)
	}
	if cfg.sweep && (cfg.sweepFactor <= 1 || cfg.sweepStart <= 0) {
		return fmt.Errorf("bad sweep ramp: start %g, factor %g", cfg.sweepStart, cfg.sweepFactor)
	}
	if cfg.conns <= 0 {
		cfg.conns = cfg.inflight
	}
	if cfg.batch < 1 {
		return fmt.Errorf("non-positive -batch %d", cfg.batch)
	}
	url := cfg.url
	var child func() error // the spawned child's stop, which -soak judges
	inProcess := false
	switch {
	case url != "":
		// An externally managed target; nothing to start or stop.
	case cfg.addr != "":
		childURL, stop, err := spawnChild(cfg.addr, cfg.model)
		if err != nil {
			return err
		}
		defer stop() //nolint:errcheck // only -soak judges the child's exit
		url, child = childURL, stop
	default:
		dir, err := os.MkdirTemp("", "aydload-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		srv, err := startServer("127.0.0.1:0", cfg.model, dir)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
		}()
		url = "http://" + srv.Addr()
		inProcess = true
	}
	hostport, ok := strings.CutPrefix(url, "http://")
	if !ok {
		return fmt.Errorf("the data plane speaks plain HTTP/1.1; got %q (TLS termination belongs in front of the server under test, not in its load generator)", url)
	}

	// The control-plane transport must never throttle: Go's default of
	// 2 idle conns per host would collapse into connection churn
	// (handshakes, TIME_WAIT, serialized requests) the moment it were
	// used for load. Pool as many connections as the fan-out could
	// need, cap the total so a melting server can't soak up unbounded
	// sockets, and skip gzip — the payloads are small JSON.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.conns,
		MaxIdleConnsPerHost: cfg.conns,
		MaxConnsPerHost:     cfg.conns,
		DisableCompression:  true,
	}}
	bodies, err := queryBodies(client, url, cfg.model, cfg.batch)
	if err != nil {
		return err
	}
	lg := &loadgen{
		client:   client,
		hostport: hostport,
		reqs:     renderRequests(hostport, bodies),
		inflight: cfg.inflight,
		batch:    cfg.batch,
	}
	defer func() {
		for _, c := range lg.conns {
			if c != nil {
				c.conn.Close()
			}
		}
	}()

	if cfg.soak {
		return runSoak(lg, url, cfg, child)
	}
	var report any
	if cfg.sweep {
		cap := sweepCapacity(lg, cfg)
		cap.URL = url
		cap.Model = cfg.model
		cap.InProcess = inProcess
		report = cap
	} else {
		if cfg.warmup > 0 {
			lg.fire(cfg.qps, cfg.warmup, false)
		}
		// Fresh GC budget for the measured window (testing.B does the
		// same): a collection triggered by warm-up debt would otherwise
		// land mid-step and read as server tail latency.
		runtime.GC()
		st, elapsed := lg.fire(cfg.qps, cfg.duration, true)
		res := result{
			URL: url, Model: cfg.model, TargetQPS: cfg.qps,
			DurationSec: cfg.duration.Seconds(),
			Requests:    st.Requests, Errors: st.Errors, Shed: st.Shed,
			AchievedQPS: st.AchievedQPS,
			Latency:     st.Latency, InProcess: inProcess,
		}
		if cfg.batch > 1 {
			res.Batch = cfg.batch
		}
		fmt.Fprintf(os.Stderr, "aydload: %d requests (%d errors, %d shed) in %.1fs — %.0f qps, p50 %.3fms p95 %.3fms p99 %.3fms\n",
			res.Requests, res.Errors, res.Shed, elapsed.Seconds(), res.AchievedQPS,
			res.Latency.P50Millis, res.Latency.P95Millis, res.Latency.P99Millis)
		if res.Errors > res.Requests/2 {
			writeReport(cfg.out, res) //nolint:errcheck // the failure is the headline
			return fmt.Errorf("more than half the requests failed")
		}
		report = res
	}
	return writeReport(cfg.out, report)
}

func writeReport(out string, report any) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// loadgen drives one endpoint with pre-rendered requests. The
// data plane speaks raw HTTP/1.1 over one persistent TCP connection per
// worker (wrk-style): at five-figure rates the net/http client's
// per-request machinery — request and header allocation, URL parsing,
// the round-trip bookkeeping — costs more CPU and GC pressure than the
// server spends answering, and on a small machine that overhead would
// be billed to the server's measured latency. Control-plane calls
// (model discovery) still go through the tuned net/http client.
type loadgen struct {
	client   *http.Client
	hostport string
	reqs     [][]byte   // pre-rendered POST /v1/yield/query requests
	conns    []*rawConn // worker-indexed; persist across warm-up and steps
	inflight int
	batch    int // queries per request (≥1); rates count queries
}

// reqTimeout bounds one data-plane request on the wire; a server stall
// past it is counted as an error rather than hanging a worker forever.
const reqTimeout = 10 * time.Second

// rawConn is one worker's persistent connection.
type rawConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(hostport string) (*rawConn, error) {
	conn, err := net.DialTimeout("tcp", hostport, reqTimeout)
	if err != nil {
		return nil, err
	}
	return &rawConn{conn: conn, br: bufio.NewReaderSize(conn, 4096)}, nil
}

// do writes one pre-rendered request and consumes exactly one
// keep-alive response, reporting whether it was a 200. It allocates
// nothing on the happy path.
func (c *rawConn) do(req []byte) (ok bool, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(reqTimeout)); err != nil {
		return false, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return false, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	ok = bytes.HasPrefix(line, []byte("HTTP/1.1 200"))
	contentLength := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		if len(line) <= 2 { // bare CRLF: end of headers
			break
		}
		if n, isCL := parseContentLength(line); isCL {
			contentLength = n
		}
	}
	if contentLength < 0 {
		// Chunked or close-delimited body: the server never sends these
		// for the query route, so treat it as a broken response rather
		// than growing a chunked parser.
		return false, fmt.Errorf("response without Content-Length")
	}
	if _, err := c.br.Discard(contentLength); err != nil {
		return false, err
	}
	return ok, nil
}

// parseContentLength matches a "Content-Length: N" header line without
// allocating.
func parseContentLength(line []byte) (n int, ok bool) {
	const key = "content-length:"
	if len(line) < len(key) {
		return 0, false
	}
	for i := 0; i < len(key); i++ {
		b := line[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != key[i] {
			return 0, false
		}
	}
	for _, b := range bytes.TrimSpace(line[len(key):]) {
		if b < '0' || b > '9' {
			return 0, false
		}
		n = n*10 + int(b-'0')
	}
	return n, true
}

// renderRequests turns the query bodies into ready-to-write HTTP/1.1
// request bytes.
func renderRequests(hostport string, bodies [][]byte) [][]byte {
	reqs := make([][]byte, len(bodies))
	for i, body := range bodies {
		var b bytes.Buffer
		fmt.Fprintf(&b, "POST /v1/yield/query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			hostport, len(body))
		b.Write(body)
		reqs[i] = b.Bytes()
	}
	return reqs
}

// shedHorizon is how far behind its schedule a worker may fall before
// it starts shedding overdue arrivals instead of firing them: past this
// backlog the step is unambiguously over SLO and firing the backlog
// would only stretch the step's wall time.
const shedHorizon = 250 * time.Millisecond

// fire runs one open-loop pass at the target rate. Pacing is
// partitioned wrk2-style: worker w owns arrivals w, w+K, w+2K, … of the
// global schedule (arrival i is due at start + i/qps), so each worker
// sleeps K-times the global interval — long enough that time.Sleep's
// ~1ms overshoot on containerised kernels stays in the noise, with no
// busy-wait to starve the netpoller on small GOMAXPROCS. The accounting
// is coordination-omission-aware: latency is measured from the
// *scheduled* arrival, and a worker that falls behind fires its overdue
// arrivals back-to-back instead of quietly rescheduling them, so a slow
// server surfaces as latency rather than as a stretched measurement
// window. Only past shedHorizon of backlog does a worker shed (and
// count) arrivals. record=false is the warm-up mode: same traffic, no
// bookkeeping.
func (lg *loadgen) fire(qps float64, duration time.Duration, record bool) (step, time.Duration) {
	// qps counts queries; with batching each wire request carries
	// lg.batch of them, so the request arrival rate is qps/batch.
	interval := float64(time.Second) * float64(lg.batch) / qps
	var (
		hist     core.Histogram
		requests atomic.Int64
		errs     atomic.Int64
		shed     atomic.Int64
		wg       sync.WaitGroup
	)
	workers := lg.inflight
	if lg.conns == nil {
		lg.conns = make([]*rawConn, workers)
	}
	wg.Add(workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// One high-resolution waiter per worker: time.Sleep wakes on
			// the netpoller's millisecond-quantised epoll timeout, which
			// CO-aware accounting would charge to every request.
			wt := pacer.New()
			defer wt.Close() //nolint:errcheck
			for i := int64(w); ; i += int64(workers) {
				offset := time.Duration(float64(i) * interval)
				if offset >= duration {
					return
				}
				sched := start.Add(offset)
				if d := time.Until(sched); d > 0 {
					wt.SleepUntil(sched)
				} else if -d > shedHorizon {
					shed.Add(1)
					continue
				}
				c := lg.conns[w]
				if c == nil {
					var err error
					if c, err = dialRaw(lg.hostport); err != nil {
						requests.Add(1)
						errs.Add(1)
						continue
					}
					lg.conns[w] = c
				}
				ok, err := c.do(lg.reqs[i%int64(len(lg.reqs))])
				requests.Add(1)
				if err != nil {
					// The connection state is unknown; drop it and let the
					// next arrival redial.
					c.conn.Close()
					lg.conns[w] = nil
					errs.Add(1)
					continue
				}
				if !ok {
					errs.Add(1)
				}
				if record {
					hist.Observe(time.Since(sched))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := step{
		TargetQPS: qps,
		Requests:  requests.Load(),
		Errors:    errs.Load(),
		Shed:      shed.Load(),
		Latency:   hist.Snapshot(),
	}
	st.AchievedQPS = float64((st.Requests-st.Errors)*int64(lg.batch)) / elapsed.Seconds()
	return st, elapsed
}

// sweepCapacity ramps the target rate geometrically until the SLO
// breaks, then bisects (geometric midpoints) between the last passing
// and first failing rungs to tighten the knee.
func sweepCapacity(lg *loadgen, cfg runConfig) *capacityResult {
	cap := &capacityResult{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         os.Getenv("GOGC"),
		GOMEMLIMIT:   os.Getenv("GOMEMLIMIT"),
		Conns:        cfg.conns,
		Inflight:     cfg.inflight,
		Batch:        cfg.batch,
		StepSec:      cfg.duration.Seconds(),
		WarmupSec:    cfg.warmup.Seconds(),
		SLOP99Millis: float64(cfg.sloP99) / 1e6,
		ErrorBudget:  cfg.errBudget,
	}
	attempt := func(qps float64, n int) step {
		if cfg.warmup > 0 {
			lg.fire(qps, cfg.warmup, false)
		}
		runtime.GC() // fresh budget for the measured window, as testing.B does
		st, _ := lg.fire(qps, cfg.duration, true)
		st.Attempt = n
		st.SLOMet = stepMeetsSLO(st, cfg)
		verdict := "PASS"
		if !st.SLOMet {
			verdict = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "aydload sweep: target %.0f qps → achieved %.0f, p50 %.3fms p95 %.3fms p99 %.3fms, %d errors, %d shed [%s]\n",
			st.TargetQPS, st.AchievedQPS, st.Latency.P50Millis, st.Latency.P95Millis,
			st.Latency.P99Millis, st.Errors, st.Shed, verdict)
		cap.Steps = append(cap.Steps, st)
		return st
	}
	// A rung fails for good only after exhausting its retries: on shared
	// hardware one host-scheduling stall poisons a 3-second window, and
	// telling that apart from a real SLO violation takes a second
	// sample. Every attempt lands in Steps, so the retries are visible
	// in the committed curve.
	runOne := func(qps float64) step {
		st := attempt(qps, 0)
		for n := 1; n <= cfg.sweepRetries && !st.SLOMet; n++ {
			fmt.Fprintf(os.Stderr, "aydload sweep: retrying %.0f qps (attempt %d of %d)\n",
				qps, n+1, cfg.sweepRetries+1)
			st = attempt(qps, n)
		}
		return st
	}

	var lastPass, firstFail *step
	for q := cfg.sweepStart; q <= cfg.sweepMax; q *= cfg.sweepFactor {
		st := runOne(q)
		if !st.SLOMet {
			firstFail = &st
			break
		}
		lastPass = &st
	}
	// Bisect the knee: geometric midpoints keep the resolution
	// proportional to the load, matching the ramp.
	for r := 0; r < cfg.sweepRefine && lastPass != nil && firstFail != nil; r++ {
		mid := math.Sqrt(lastPass.TargetQPS * firstFail.TargetQPS)
		if mid/lastPass.TargetQPS < 1.05 { // rungs this close are noise
			break
		}
		st := runOne(mid)
		if st.SLOMet {
			lastPass = &st
		} else {
			firstFail = &st
		}
	}
	if lastPass != nil {
		cap.Knee = lastPass
		cap.KneeTargetQPS = lastPass.TargetQPS
		cap.KneeQPS = lastPass.AchievedQPS
	}
	fmt.Fprintf(os.Stderr, "aydload sweep: knee at %.0f qps (target %.0f) within p99 ≤ %.1fms\n",
		cap.KneeQPS, cap.KneeTargetQPS, cap.SLOP99Millis)
	return cap
}

// stepMeetsSLO applies the sweep's two budgets: tail latency and
// badput (failed plus shed arrivals).
func stepMeetsSLO(st step, cfg runConfig) bool {
	if st.Latency.P99Millis > float64(cfg.sloP99)/1e6 {
		return false
	}
	arrivals := st.Requests + st.Shed
	if arrivals == 0 {
		return false
	}
	return float64(st.Errors+st.Shed)/float64(arrivals) <= cfg.errBudget
}

// queryBodies pre-encodes a rotating set of queries so the load isn't a
// single cache line's worth of identical requests. Bounds are drawn
// from the target model's own modelled domains (via /v1/models): the
// first objective sweeps the lower half of its range and the second
// stays near the bottom of its range, which is feasible on any
// trade-off front with the usual guard-band margins. With batch > 1
// each body is a {"queries":[...]} batch of that many queries — the
// shape an optimizer loop posts, and the one that amortizes the
// per-request HTTP and JSON overhead the profile shows dominating the
// single-query path.
func queryBodies(client *http.Client, url, model string, batch int) ([][]byte, error) {
	info, err := fetchModelInfo(client, url, model)
	if err != nil {
		return nil, err
	}
	if len(info.ObjectiveNames) < 2 {
		return nil, fmt.Errorf("model %q reports %d objectives, need 2", model, len(info.ObjectiveNames))
	}
	span0 := info.Domain[1] - info.Domain[0]
	span1 := info.Domain1[1] - info.Domain1[0]
	rng := rand.New(rand.NewSource(1))
	oneQuery := func() api.QueryRequest {
		return api.QueryRequest{
			TenantRef: api.TenantRef{Model: model},
			Specs: [2]api.Spec{
				{Name: info.ObjectiveNames[0], Sense: ">=",
					Bound: info.Domain[0] + (0.10+0.40*rng.Float64())*span0},
				{Name: info.ObjectiveNames[1], Sense: ">=",
					Bound: info.Domain1[0] + (0.02+0.10*rng.Float64())*span1},
			},
		}
	}
	bodies := make([][]byte, 64)
	for i := range bodies {
		var payload any
		if batch > 1 {
			qs := make([]api.QueryRequest, batch)
			for j := range qs {
				qs[j] = oneQuery()
			}
			payload = api.BatchQueryRequest{Queries: qs}
		} else {
			payload = oneQuery()
		}
		b, err := json.Marshal(payload)
		if err != nil {
			panic(err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// fetchModelInfo asks the target server what it is about to load-test.
func fetchModelInfo(client *http.Client, url, model string) (*api.ModelInfo, error) {
	resp, err := client.Get(url + "/v1/models")
	if err != nil {
		return nil, fmt.Errorf("listing models: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing models: %s", resp.Status)
	}
	var infos []api.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("listing models: %w", err)
	}
	for i := range infos {
		if infos[i].Name == model {
			return &infos[i], nil
		}
	}
	return nil, fmt.Errorf("model %q not served at %s (have %d models)", model, url, len(infos))
}

// serveChild is the re-executed serving process of -addr mode: it binds
// the requested address, installs the synthetic model, announces the
// bound address on stdout, and serves until the parent closes its
// stdin. Its store and flow checkpoints go to a temporary directory,
// never the caller's working directory.
func serveChild(addr, model string) error {
	if model == "" {
		model = "loadtest"
	}
	dir, err := os.MkdirTemp("", "aydload-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(addr, model, dir)
	if err != nil {
		return err
	}
	// The parent reads this line to learn the bound port (addr may be
	// ":0").
	fmt.Printf("AYDLOAD_READY %s\n", srv.Addr())
	os.Stdout.Close()
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck // EOF = parent is done
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// spawnChild re-executes this binary as a separate serving process, its
// stderr passed through, and waits for its ready line; the returned stop
// runs stopChild once and returns its result on every call.
func spawnChild(addr, model string) (url string, stop func() error, err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveEnv+"="+addr, modelEnv+"="+model)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = sync.OnceValue(func() error { return stopChild(cmd, stdin) })
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if boundAddr, ok := strings.CutPrefix(sc.Text(), "AYDLOAD_READY "); ok {
			return "http://" + boundAddr, stop, nil
		}
	}
	stop() //nolint:errcheck // the missing ready line is the error
	return "", nil, fmt.Errorf("serving child exited before announcing readiness")
}

// stopChild closes a started child's stdin, its shutdown signal, and
// reaps it, killing it after 10 s. It returns the child's exit error.
func stopChild(cmd *exec.Cmd, stdin io.Closer) error {
	stdin.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // drain hung; reap hard
		return <-done
	}
}

// startServer starts a serving stack bound to addr with a synthetic
// 64-point model installed under the given name — the same analytic
// front the server package's tests and benchmarks use — with its store
// and flow checkpoints under dir.
func startServer(addr, model, dir string) (*server.Server, error) {
	const n = 64
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
		return nil, err
	}
	srv := server.New(server.Config{
		Addr:      addr,
		ModelsDir: dir,
		// Level-gated, not just discarded: with Info filtered out the
		// access-log middleware skips per-request attribute formatting
		// instead of rendering lines nobody reads.
		Logger: slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.LevelError})),
	})
	if _, err := srv.Registry().Install(api.DefaultTenant, model, m); err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}
