// Package telemetry exports the repo's core.Metrics registry in the
// Prometheus text exposition format (version 0.0.4), pure stdlib — no
// client library. It is the service's one metrics surface: the
// counters, gauges and per-route latency histograms of the registry
// appear as individually typed time series at GET /metrics, which is
// what fleet monitoring ingests.
//
// Flow counters become `ayd_*_total` counters, the MC scheduler
// occupancy gauges keep their current/peak split, per-route latency
// histograms become one `ayd_http_request_duration_seconds` family with
// a `route` label (full cumulative bucket ladders, not just quantiles —
// Prometheus computes quantiles server-side across scrapes), and two
// process-level gauges (`go_goroutines`,
// `process_resident_memory_bytes`) give leak hunters like `aydload
// -soak` a uniform signal to sample.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"analogyield/internal/core"
)

// ContentType is the exposition-format content type prometheus scrapers
// negotiate.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry as a Prometheus scrape target.
func Handler(m *core.Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		Write(&buf, m)
		h := w.Header()
		h.Set("Content-Type", ContentType)
		h.Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes()) //nolint:errcheck // client gone: nothing left to do
	})
}

// Write renders one full exposition of the registry. Output order is
// deterministic (fixed family order, sorted label values) so scrapes
// diff cleanly and tests can golden-pin the layout.
func Write(w io.Writer, m *core.Metrics) {
	s := m.Snapshot()
	b := &expo{w: w}

	b.family("ayd_flows_total", "counter", "Completed flow runs.")
	b.sample("ayd_flows_total", "", float64(s.Flows))
	b.family("ayd_evaluations_total", "counter", "Circuit evaluations across all flows.")
	b.sample("ayd_evaluations_total", "", float64(s.Evaluations))
	b.family("ayd_mc_simulations_total", "counter", "Monte Carlo simulations across all flows.")
	b.sample("ayd_mc_simulations_total", "", float64(s.MCSimulations))
	b.family("ayd_solver_failures_total", "counter", "Solver failures (non-converged evaluations).")
	b.sample("ayd_solver_failures_total", "", float64(s.SolverFailures))
	b.family("ayd_cache_hits_total", "counter", "Genome evaluation cache hits.")
	b.sample("ayd_cache_hits_total", "", float64(s.CacheHits))
	b.family("ayd_cache_misses_total", "counter", "Genome evaluation cache misses.")
	b.sample("ayd_cache_misses_total", "", float64(s.CacheMisses))
	b.family("ayd_dropped_points_total", "counter", "Pareto points dropped during MC verification.")
	b.sample("ayd_dropped_points_total", "", float64(s.DroppedPoints))
	b.family("ayd_checkpoints_total", "counter", "Flow checkpoints written.")
	b.sample("ayd_checkpoints_total", "", float64(s.Checkpoints))
	b.family("ayd_analysis_op_solves_total", "counter", "DC operating points solved by flow evaluations.")
	b.sample("ayd_analysis_op_solves_total", "", float64(s.OPSolves))
	b.family("ayd_analysis_op_iterations_total", "counter", "Newton iterations of those solves, failed attempts included.")
	b.sample("ayd_analysis_op_iterations_total", "", float64(s.OPIterations))
	b.family("ayd_analysis_op_warm_fallbacks_total", "counter", "Monte Carlo solves whose warm start fell back to the zero start.")
	b.sample("ayd_analysis_op_warm_fallbacks_total", "", float64(s.OPWarmFallbacks))
	b.family("ayd_analysis_ac_points_total", "counter", "AC sweep points solved by flow evaluations.")
	b.sample("ayd_analysis_ac_points_total", "", float64(s.ACPoints))
	b.family("ayd_analysis_ac_off_plan_total", "counter", "AC sweep points factored afresh off their sweep's elimination plan.")
	b.sample("ayd_analysis_ac_off_plan_total", "", float64(s.ACOffPlan))

	b.family("ayd_stage_seconds_total", "counter", "Cumulative wall-clock per flow stage.")
	b.sample("ayd_stage_seconds_total", `stage="moo"`, s.MOOSeconds)
	b.sample("ayd_stage_seconds_total", `stage="mc"`, s.MCSeconds)
	b.sample("ayd_stage_seconds_total", `stage="tables"`, s.TablesSeconds)

	b.family("ayd_mc_busy_workers", "gauge", "MC scheduler workers currently simulating.")
	b.sample("ayd_mc_busy_workers", "", float64(s.MCBusyWorkers))
	b.family("ayd_mc_busy_workers_peak", "gauge", "High-water mark of busy MC workers.")
	b.sample("ayd_mc_busy_workers_peak", "", float64(s.MCBusyWorkersPeak))
	b.family("ayd_mc_queue_depth", "gauge", "MC scheduler work items queued.")
	b.sample("ayd_mc_queue_depth", "", float64(s.MCQueueDepth))
	b.family("ayd_mc_queue_depth_peak", "gauge", "High-water mark of the MC queue depth.")
	b.sample("ayd_mc_queue_depth_peak", "", float64(s.MCQueueDepthPeak))
	b.family("ayd_mc_points_in_flight", "gauge", "Pareto points with MC work in flight.")
	b.sample("ayd_mc_points_in_flight", "", float64(s.MCPointsInFlight))
	b.family("ayd_mc_points_in_flight_peak", "gauge", "High-water mark of MC points in flight.")
	b.sample("ayd_mc_points_in_flight_peak", "", float64(s.MCPointsInFlightPeak))

	// Cluster families appear only when this process runs as a named
	// replica, so single-node expositions stay byte-identical to the
	// pre-cluster layout.
	if s.Replica != "" {
		b.family("ayd_replica_info", "gauge", "Replica identity (value is always 1).")
		b.sample("ayd_replica_info", `replica="`+escapeLabel(s.Replica)+`"`, 1)
		b.family("ayd_leases_held", "gauge", "Job leases currently held by this replica.")
		b.sample("ayd_leases_held", "", float64(s.LeasesHeld))
		b.family("ayd_lease_acquired_total", "counter", "Job leases acquired (submissions plus takeovers).")
		b.sample("ayd_lease_acquired_total", "", float64(s.LeaseAcquired))
		b.family("ayd_lease_takeovers_total", "counter", "Jobs adopted from a crashed or drained peer.")
		b.sample("ayd_lease_takeovers_total", "", float64(s.LeaseTakeovers))
		b.family("ayd_lease_rejections_total", "counter", "Fenced writes or renewals refused because the lease was lost.")
		b.sample("ayd_lease_rejections_total", "", float64(s.LeaseRejections))
	}

	writeHistograms(b, m, s)

	b.family("go_goroutines", "gauge", "Number of goroutines.")
	b.sample("go_goroutines", "", float64(runtime.NumGoroutine()))
	if rss, ok := readRSS(); ok {
		b.family("process_resident_memory_bytes", "gauge", "Resident set size.")
		b.sample("process_resident_memory_bytes", "", float64(rss))
	}
}

// writeHistograms renders every named latency histogram as one series
// set of the shared ayd_http_request_duration_seconds family.
func writeHistograms(b *expo, m *core.Metrics, s core.MetricsSnapshot) {
	if len(s.Latencies) == 0 {
		return
	}
	names := make([]string, 0, len(s.Latencies))
	for name := range s.Latencies {
		names = append(names, name)
	}
	sort.Strings(names)
	const fam = "ayd_http_request_duration_seconds"
	b.family(fam, "histogram", "HTTP request latency by route.")
	for _, name := range names {
		buckets, count, sum := m.Histogram(name).Export()
		route := `route="` + escapeLabel(name) + `"`
		for _, bk := range buckets {
			b.sample(fam+"_bucket", route+`,le="`+formatLe(bk.UpperBound)+`"`, float64(bk.CumulativeCount))
		}
		b.sample(fam+"_sum", route, sum)
		b.sample(fam+"_count", route, float64(count))
	}
}

// expo accumulates exposition lines.
type expo struct {
	w io.Writer
}

func (b *expo) family(name, typ, help string) {
	fmt.Fprintf(b.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (b *expo) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b.w, "%s%s %s\n", name, labels, formatValue(v))
}

// formatValue renders a sample value; integral values print without an
// exponent so counters stay human-readable.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket bound ("+Inf" for the overflow bucket).
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// readRSS reports the process resident set size. Linux-only (/proc);
// other platforms simply omit the metric.
func readRSS() (int64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}
