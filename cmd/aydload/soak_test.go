package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/telemetry"
)

// cleanSoak is a 20 s soak report whose ten samples sit inside every
// bound.
func cleanSoak() *soakReport {
	rep := &soakReport{Target: "http://soak.test", DurationSec: 20, Requests: 1000}
	for i := 1; i <= 10; i++ {
		rep.Samples = append(rep.Samples, soakSample{
			ElapsedSec:     float64(2 * i),
			Goroutines:     20,
			RSSBytes:       50 << 20,
			WindowRequests: 100,
			WindowP99Ms:    1,
		})
	}
	return rep
}

// TestSoakJudge: a clean run passes, and each broken bound fails the run
// with its own named reason and no other.
func TestSoakJudge(t *testing.T) {
	last := func(rep *soakReport) *soakSample { return &rep.Samples[len(rep.Samples)-1] }
	noRSS := []string{"no goroutine reading"}
	if runtime.GOOS == "linux" {
		noRSS = append(noRSS, "no RSS reading")
	}
	for _, tc := range []struct {
		name  string
		spoil func(*soakReport)
		want  []string
	}{
		{"clean", func(*soakReport) {}, nil},
		{"goroutine growth", func(r *soakReport) { last(r).Goroutines += soakMaxGoroutines + 1 }, []string{"goroutines grew"}},
		{"RSS growth", func(r *soakReport) { last(r).RSSBytes = 68 << 20 }, []string{"RSS grew"}},
		{"p99 drift", func(r *soakReport) {
			for i := 5; i < len(r.Samples); i++ {
				r.Samples[i].WindowP99Ms = 5
			}
		}, []string{"p99 drifted"}},
		{"error rate", func(r *soakReport) { r.Errors = 11 }, []string{"error rate"}},
		{"zero requests", func(r *soakReport) { r.Requests = 0 }, []string{"no requests completed"}},
		{"no readings", func(r *soakReport) {
			for i := range r.Samples {
				r.Samples[i].Goroutines, r.Samples[i].RSSBytes = 0, 0
			}
		}, noRSS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := cleanSoak()
			tc.spoil(rep)
			rep.judge(nil)
			if rep.Pass != (len(tc.want) == 0) || len(rep.Failures) != len(tc.want) {
				t.Fatalf("pass=%v failures=%q, want %q", rep.Pass, rep.Failures, tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(rep.Failures[i], want) {
					t.Errorf("failure %d = %q, want it to name %q", i, rep.Failures[i], want)
				}
			}
		})
	}
}

// TestParseScrapeReadsTelemetry runs the /metrics exposition through the
// soak's parser, so a renamed series fails here instead of silently
// zeroing every soak sample.
func TestParseScrapeReadsTelemetry(t *testing.T) {
	var buf bytes.Buffer
	telemetry.Write(&buf, &core.Metrics{})
	goroutines, rss := parseScrape(&buf)
	if goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", goroutines)
	}
	if runtime.GOOS == "linux" && rss <= 0 {
		t.Errorf("RSS = %d, want > 0 on Linux", rss)
	}
}

// TestSoakFailsOnChildExit: a short soak whose serving child exits 66,
// as a -race build does after a data race, fails with the child's exit
// status named, although every load and leak bound holds.
func TestSoakFailsOnChildExit(t *testing.T) {
	srv, err := startServer("127.0.0.1:0", "loadtest", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	base, hostport := "http://"+srv.Addr(), srv.Addr()
	bodies, err := queryBodies(http.DefaultClient, base, "loadtest", 1)
	if err != nil {
		t.Fatal(err)
	}
	lg := &loadgen{client: http.DefaultClient, inflight: 4, batch: 1,
		hostports: []string{hostport}, reqs: [][][]byte{renderRequests(hostport, bodies)}}

	child := exec.Command("sh", "-c", "exit 66")
	stdin, err := child.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Skip("no sh:", err)
	}
	out := filepath.Join(t.TempDir(), "soak.json")
	cfg := runConfig{qps: 200, duration: 500 * time.Millisecond, out: out}
	err = runSoak(lg, base, cfg, func() error { return stopChild(child, stdin) })
	if err == nil || !strings.Contains(err.Error(), "exit status 66") {
		t.Fatalf("runSoak = %v, want a failure naming exit status 66", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep soakReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass || len(rep.Failures) != 1 || rep.Requests == 0 || !rep.Spawned {
		t.Errorf("report: pass=%v failures=%q requests=%d spawned=%v, want only the child failure",
			rep.Pass, rep.Failures, rep.Requests, rep.Spawned)
	}
}

// TestSoakNeedsOneServedTarget: -soak refuses to run without a separate
// target, or with several.
func TestSoakNeedsOneServedTarget(t *testing.T) {
	for _, cfg := range []runConfig{
		{soak: true},
		{soak: true, url: "http://a:1,http://b:1"},
		{soak: true, url: "http://a:1", sweep: true},
	} {
		cfg.qps, cfg.inflight, cfg.batch = 1, 1, 1
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), "-soak") {
			t.Errorf("run(%+v) = %v, want the -soak target error", cfg, err)
		}
	}
}
