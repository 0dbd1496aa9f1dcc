package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"analogyield/internal/analysis"
	"analogyield/internal/core"
)

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	lineRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parseExposition validates the text against the 0.0.4 exposition
// format: HELP and TYPE precede every family's samples, names are
// legal, values parse, label pairs are well-formed. It returns the
// samples and the TYPE of each family.
func parseExposition(t *testing.T, text string) ([]sample, map[string]string) {
	t.Helper()
	var samples []sample
	types := map[string]string{}
	helps := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || !nameRe.MatchString(name) {
				t.Fatalf("bad HELP line: %q", line)
			}
			helps[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found || !nameRe.MatchString(name) {
				t.Fatalf("bad TYPE line: %q", line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("illegal TYPE %q in %q", typ, line)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment form: %q", line)
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		s := sample{name: m[1], labels: map[string]string{}}
		if m[3] != "" {
			for _, pair := range splitLabels(m[3]) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				s.labels[lm[1]] = lm[2]
			}
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil && m[4] != "+Inf" && m[4] != "-Inf" && m[4] != "NaN" {
			t.Fatalf("bad value %q in %q", m[4], line)
		}
		s.value = v
		// Every sample must belong to a family announced by HELP+TYPE.
		fam := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.name, suf); base != s.name && types[base] == "histogram" {
				fam = base
			}
		}
		if !helps[fam] || types[fam] == "" {
			t.Fatalf("sample %q emitted before its HELP/TYPE", line)
		}
		samples = append(samples, s)
	}
	return samples, types
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// find returns the single sample with the given name and label subset.
func find(t *testing.T, samples []sample, name string, labels map[string]string) sample {
	t.Helper()
	var hits []sample
outer:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for k, v := range labels {
			if s.labels[k] != v {
				continue outer
			}
		}
		hits = append(hits, s)
	}
	if len(hits) != 1 {
		t.Fatalf("want exactly one %s%v, got %d", name, labels, len(hits))
	}
	return hits[0]
}

func TestWriteExpositionFormat(t *testing.T) {
	var m core.Metrics
	m.AddOPStats(analysis.OPStats{Solves: 12, Iterations: 61, WarmFallbacks: 1, ACPoints: 350, ACOffPlan: 2})
	m.AddBusyWorkers(3)
	m.AddQueueDepth(7)
	m.AddQueueDepth(-2)
	h := m.Histogram("query")
	for _, d := range []time.Duration{80 * time.Microsecond, 2 * time.Millisecond, 2 * time.Millisecond, 40 * time.Millisecond} {
		h.Observe(d)
	}
	m.Histogram("flows").Observe(10 * time.Millisecond)

	var buf bytes.Buffer
	Write(&buf, &m)
	samples, types := parseExposition(t, buf.String())

	// The golden comparison: every exported number must equal the same
	// registry's Snapshot.
	snap := m.Snapshot()
	if snap.ACPoints != 350 || snap.ACOffPlan != 2 {
		t.Errorf("snapshot AC points %d, off plan %d; want 350, 2", snap.ACPoints, snap.ACOffPlan)
	}
	for name, want := range map[string]float64{
		"ayd_flows_total":                      float64(snap.Flows),
		"ayd_evaluations_total":                float64(snap.Evaluations),
		"ayd_mc_simulations_total":             float64(snap.MCSimulations),
		"ayd_solver_failures_total":            float64(snap.SolverFailures),
		"ayd_cache_hits_total":                 float64(snap.CacheHits),
		"ayd_cache_misses_total":               float64(snap.CacheMisses),
		"ayd_dropped_points_total":             float64(snap.DroppedPoints),
		"ayd_checkpoints_total":                float64(snap.Checkpoints),
		"ayd_analysis_op_solves_total":         float64(snap.OPSolves),
		"ayd_analysis_op_iterations_total":     float64(snap.OPIterations),
		"ayd_analysis_op_warm_fallbacks_total": float64(snap.OPWarmFallbacks),
		"ayd_analysis_ac_points_total":         float64(snap.ACPoints),
		"ayd_analysis_ac_off_plan_total":       float64(snap.ACOffPlan),
		"ayd_mc_busy_workers":                  float64(snap.MCBusyWorkers),
		"ayd_mc_busy_workers_peak":             float64(snap.MCBusyWorkersPeak),
		"ayd_mc_queue_depth":                   float64(snap.MCQueueDepth),
		"ayd_mc_queue_depth_peak":              float64(snap.MCQueueDepthPeak),
		"ayd_mc_points_in_flight":              float64(snap.MCPointsInFlight),
		"ayd_mc_points_in_flight_peak":         float64(snap.MCPointsInFlightPeak),
	} {
		if got := find(t, samples, name, nil).value; got != want {
			t.Errorf("%s = %v, want %v (snapshot)", name, got, want)
		}
	}
	if v := find(t, samples, "ayd_mc_queue_depth", nil).value; v != 5 {
		t.Errorf("queue depth gauge = %v, want 5", v)
	}
	if v := find(t, samples, "ayd_mc_queue_depth_peak", nil).value; v != 7 {
		t.Errorf("queue depth peak = %v, want 7", v)
	}
	for _, stage := range []string{"moo", "mc", "tables"} {
		find(t, samples, "ayd_stage_seconds_total", map[string]string{"stage": stage})
	}

	// The cluster families: a single-node process exports none.
	for _, s := range samples {
		if strings.HasPrefix(s.name, "ayd_replica_") ||
			strings.HasPrefix(s.name, "ayd_lease") {
			t.Errorf("unexpected cluster series %s with no replica id set", s.name)
		}
	}

	// Histogram semantics per route.
	const fam = "ayd_http_request_duration_seconds"
	if types[fam] != "histogram" {
		t.Fatalf("%s TYPE = %q", fam, types[fam])
	}
	for route, wantCount := range map[string]float64{"query": 4, "flows": 1} {
		lbl := map[string]string{"route": route}
		count := find(t, samples, fam+"_count", lbl).value
		if count != wantCount {
			t.Errorf("route %s count = %v, want %v", route, count, wantCount)
		}
		sum := find(t, samples, fam+"_sum", lbl).value
		if sum <= 0 {
			t.Errorf("route %s sum = %v, want > 0", route, sum)
		}
		var prev float64
		var infSeen bool
		for _, s := range samples {
			if s.name != fam+"_bucket" || s.labels["route"] != route {
				continue
			}
			if s.value < prev {
				t.Fatalf("route %s bucket ladder not monotone: %v < %v", route, s.value, prev)
			}
			prev = s.value
			if s.labels["le"] == "+Inf" {
				infSeen = true
				if s.value != count {
					t.Errorf("route %s +Inf bucket %v != count %v", route, s.value, count)
				}
			} else if _, err := strconv.ParseFloat(s.labels["le"], 64); err != nil {
				t.Fatalf("route %s bad le %q", route, s.labels["le"])
			}
		}
		if !infSeen {
			t.Fatalf("route %s has no +Inf bucket", route)
		}
		// Cross-check against the histogram snapshot.
		if hs := snap.Latencies[route]; float64(hs.Count) != count {
			t.Errorf("route %s exposition count %v != snapshot count %d", route, count, hs.Count)
		}
	}

	if v := find(t, samples, "go_goroutines", nil).value; v < 1 {
		t.Errorf("go_goroutines = %v", v)
	}
}

// TestWriteGoldenBytes pins the deterministic prefix of the exposition
// — every family up to the process-level gauges — byte-for-byte against
// testdata/exposition.golden: same families, same order, same
// numbers, same formatting, however the counters and histogram buckets
// underneath are stored. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/telemetry/.
func TestWriteGoldenBytes(t *testing.T) {
	var m core.Metrics
	m.AddBusyWorkers(3)
	m.AddBusyWorkers(-1)
	m.AddQueueDepth(7)
	m.AddQueueDepth(-2)
	m.AddPointsInFlight(4)
	h := m.Histogram("query")
	for _, d := range []time.Duration{
		10 * time.Microsecond, // bucket 0
		80 * time.Microsecond,
		2 * time.Millisecond,
		2 * time.Millisecond,
		40 * time.Millisecond,
		3 * time.Second,
		time.Hour, // +Inf overflow bucket
	} {
		h.Observe(d)
	}
	m.Histogram("flow_submit").Observe(10 * time.Millisecond)

	var buf bytes.Buffer
	Write(&buf, &m)
	text := buf.String()
	// Everything from go_goroutines on is process state, different on
	// every run; the prefix is fully deterministic.
	cut := strings.Index(text, "# HELP go_goroutines")
	if cut < 0 {
		t.Fatalf("exposition lost the go_goroutines family:\n%s", text)
	}
	got := text[:cut]

	const golden = "testdata/exposition.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteClusterFamilies pins the cluster-mode additions: once a
// replica id is set, the lease families appear with the registry's
// numbers, and every value round-trips through the parser.
func TestWriteClusterFamilies(t *testing.T) {
	var m core.Metrics
	m.SetReplica("replica-1")
	m.AddLeasesHeld(3)
	m.AddLeasesHeld(-1)
	m.IncLeaseAcquired()
	m.IncLeaseAcquired()
	m.IncLeaseTakeovers()
	m.IncLeaseRejections()

	var buf bytes.Buffer
	Write(&buf, &m)
	samples, types := parseExposition(t, buf.String())

	info := find(t, samples, "ayd_replica_info", map[string]string{"replica": "replica-1"})
	if info.value != 1 {
		t.Errorf("ayd_replica_info = %v, want 1", info.value)
	}
	for name, want := range map[string]float64{
		"ayd_leases_held":            2,
		"ayd_lease_acquired_total":   2,
		"ayd_lease_takeovers_total":  1,
		"ayd_lease_rejections_total": 1,
	} {
		if got := find(t, samples, name, nil).value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, wantType := range map[string]string{
		"ayd_replica_info":           "gauge",
		"ayd_leases_held":            "gauge",
		"ayd_lease_acquired_total":   "counter",
		"ayd_lease_takeovers_total":  "counter",
		"ayd_lease_rejections_total": "counter",
	} {
		if types[name] != wantType {
			t.Errorf("%s TYPE = %q, want %q", name, types[name], wantType)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := escapeLabel("is\"quoted\"\npath\\x"); got != `is\"quoted\"\npath\\x` {
		t.Errorf("escapeLabel = %q", got)
	}
	if got := formatValue(42); got != "42" {
		t.Errorf("formatValue(42) = %q, want no exponent", got)
	}
	if got := formatValue(0.0025); got != "0.0025" {
		t.Errorf("formatValue(0.0025) = %q", got)
	}
	if got := formatLe(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatLe(+Inf) = %q", got)
	}
}

func TestHandler(t *testing.T) {
	var m core.Metrics
	m.Histogram("q").Observe(time.Millisecond)
	rec := httptest.NewRecorder()
	Handler(&m).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("Content-Length %s != body %d", cl, rec.Body.Len())
	}
	parseExposition(t, rec.Body.String())
}
