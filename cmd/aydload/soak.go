package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"analogyield/internal/num"
	"analogyield/internal/server/api"
	"analogyield/internal/server/client"
)

// Soak cadences and thresholds. Samples taken in the first soakWarmup
// of the run do not count toward the verdicts: pool growth and
// first-touch allocation are not leaks.
const (
	soakWindow        = 2 * time.Second  // load window between /metrics scrapes
	soakFlowEvery     = 15 * time.Second // cadence of flow submissions
	soakWarmup        = 0.25             // leading fraction of the run left out of the verdicts
	soakMaxGoroutines = 50               // goroutine growth over the baseline
	soakMaxRSSPct     = 35               // RSS growth over the baseline, percent
	soakMaxP99Pct     = 300              // late-vs-early p99 drift, percent
	soakMaxErrorRate  = 0.01
)

// soakFlow is the small model-building job a soak submits every
// soakFlowEvery, keeping the worker pool, checkpointing and store
// machinery busy while queries hammer the hot path. The fixed seed makes
// every artefact identical, so the content-addressed store does not grow
// across submissions: growth that does show up is a leak, not workload.
var soakFlow = api.FlowRequest{
	TenantRef:   api.TenantRef{Model: "soakflow"},
	Problem:     "ota",
	PopSize:     16,
	Generations: 3,
	MCSamples:   16,
	Workers:     1,
	Seed:        7,
}

// soakSample is one scrape of the target after a load window.
type soakSample struct {
	ElapsedSec     float64 `json:"elapsed_s"`
	Goroutines     int64   `json:"goroutines"` // 0: no reading
	RSSBytes       int64   `json:"rss_bytes"`  // 0: no reading
	WindowRequests int64   `json:"window_requests"`
	WindowP99Ms    float64 `json:"window_p99_ms"`
}

// soakReport is the soak outcome (benchmarks/SOAK.json).
type soakReport struct {
	Target      string       `json:"target"`
	Spawned     bool         `json:"spawned"`
	DurationSec float64      `json:"duration_s"`
	TargetQPS   float64      `json:"target_qps"`
	Requests    int64        `json:"requests"`
	Errors      int64        `json:"errors"`
	Shed        int64        `json:"shed"`
	Flows       int          `json:"flows_submitted"`
	Samples     []soakSample `json:"samples"`

	BaselineGoroutines int64   `json:"baseline_goroutines"`
	FinalGoroutines    int64   `json:"final_goroutines"`
	BaselineRSSBytes   int64   `json:"baseline_rss_bytes"`
	FinalRSSBytes      int64   `json:"final_rss_bytes"`
	EarlyP99Ms         float64 `json:"early_p99_ms"`
	LateP99Ms          float64 `json:"late_p99_ms"`

	Failures []string `json:"failures"`
	Pass     bool     `json:"pass"`
}

// runSoak holds the target at cfg.qps for cfg.duration in back-to-back
// soakWindow windows, scraping its goroutine count and RSS after each
// and submitting soakFlow every soakFlowEvery. stop, when non-nil, shuts
// the spawned serving child down; its exit error fails the soak, so a
// -race child that saw a data race (exit 66) cannot pass. The report
// goes to cfg.out.
func runSoak(lg *loadgen, base string, cfg runConfig, stop func() error) error {
	rep := &soakReport{Target: base, Spawned: stop != nil,
		DurationSec: cfg.duration.Seconds(), TargetQPS: cfg.qps}
	cl := client.New(base, client.WithHTTPClient(lg.client))
	start := time.Now()
	nextFlow := soakFlowEvery
	for elapsed := time.Duration(0); elapsed < cfg.duration; elapsed = time.Since(start) {
		if elapsed >= nextFlow {
			if _, err := cl.SubmitFlow(context.Background(), soakFlow); err == nil {
				rep.Flows++
			}
			nextFlow += soakFlowEvery
		}
		st, _ := lg.fire(cfg.qps, min(soakWindow, cfg.duration-elapsed), true)
		rep.Requests += st.Requests
		rep.Errors += st.Errors
		rep.Shed += st.Shed
		goroutines, rss := scrape(lg.client, base)
		rep.Samples = append(rep.Samples, soakSample{
			ElapsedSec:     time.Since(start).Seconds(),
			Goroutines:     goroutines,
			RSSBytes:       rss,
			WindowRequests: st.Latency.Count,
			WindowP99Ms:    st.Latency.P99Millis,
		})
	}
	var childErr error
	if stop != nil {
		childErr = stop()
	}
	rep.judge(childErr)
	if err := writeReport(cfg.out, rep); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("soak FAIL: %s", strings.Join(rep.Failures, "; "))
	}
	fmt.Fprintf(os.Stderr, "aydload: soak PASS — %d requests, goroutines %d→%d, RSS %.1f→%.1f MiB, p99 %.2f→%.2fms\n",
		rep.Requests, rep.BaselineGoroutines, rep.FinalGoroutines,
		float64(rep.BaselineRSSBytes)/(1<<20), float64(rep.FinalRSSBytes)/(1<<20),
		rep.EarlyP99Ms, rep.LateP99Ms)
	return nil
}

// judge derives the leak and drift figures from the samples taken after
// the warm-up and lists every bound the run broke; childErr is the
// serving child's exit error (nil for a clean exit or no child).
func (rep *soakReport) judge(childErr error) {
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	warm := rep.Samples
	for i, s := range rep.Samples {
		if s.ElapsedSec >= soakWarmup*rep.DurationSec {
			warm = rep.Samples[i:]
			break
		}
	}
	if len(warm) > 0 {
		first, last := warm[0], warm[len(warm)-1]
		rep.BaselineGoroutines, rep.FinalGoroutines = first.Goroutines, last.Goroutines
		rep.BaselineRSSBytes, rep.FinalRSSBytes = first.RSSBytes, last.RSSBytes
	}
	// p99 drift compares the median p99 of the late half of the windows
	// with the early half, so one GC pause or flow start does not decide
	// the verdict.
	var p99s []float64
	for _, s := range warm {
		if s.WindowRequests > 0 {
			p99s = append(p99s, s.WindowP99Ms)
		}
	}
	if n := len(p99s); n >= 2 {
		rep.EarlyP99Ms = num.Percentile(p99s[:n/2], 50)
		rep.LateP99Ms = num.Percentile(p99s[n/2:], 50)
	}

	if rep.Requests == 0 {
		fail("no requests completed")
	} else if rate := float64(rep.Errors) / float64(rep.Requests); rate > soakMaxErrorRate {
		fail("error rate %.2f%% exceeds %.0f%%", 100*rate, 100*soakMaxErrorRate)
	}
	if rep.BaselineGoroutines == 0 || rep.FinalGoroutines == 0 {
		fail("no goroutine reading from %s/metrics", rep.Target)
	} else if g := rep.FinalGoroutines - rep.BaselineGoroutines; g > soakMaxGoroutines {
		fail("goroutines grew by %d (baseline %d, max %d)", g, rep.BaselineGoroutines, soakMaxGoroutines)
	}
	// /metrics exports RSS wherever /proc exists, so on Linux a missing
	// reading is a broken scrape, not a platform gap.
	if rep.BaselineRSSBytes == 0 || rep.FinalRSSBytes == 0 {
		if runtime.GOOS == "linux" {
			fail("no RSS reading from %s/metrics", rep.Target)
		}
	} else if pct := 100 * float64(rep.FinalRSSBytes-rep.BaselineRSSBytes) / float64(rep.BaselineRSSBytes); pct > soakMaxRSSPct {
		fail("RSS grew by %.1f%% (baseline %.1f MiB, max %d%%)",
			pct, float64(rep.BaselineRSSBytes)/(1<<20), soakMaxRSSPct)
	}
	if rep.EarlyP99Ms > 0 {
		if pct := 100 * (rep.LateP99Ms - rep.EarlyP99Ms) / rep.EarlyP99Ms; pct > soakMaxP99Pct {
			fail("p99 drifted by %.0f%% (%.2fms → %.2fms, max %d%%)",
				pct, rep.EarlyP99Ms, rep.LateP99Ms, soakMaxP99Pct)
		}
	}
	if childErr != nil {
		fail("serving child: %v", childErr)
	}
	rep.Pass = len(rep.Failures) == 0
	if rep.Failures == nil {
		rep.Failures = []string{}
	}
}

// scrape reads the target's goroutine count and RSS from its /metrics;
// a value it cannot read is 0.
func scrape(hc *http.Client, base string) (goroutines, rss int64) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	return parseScrape(resp.Body)
}

// parseScrape pulls go_goroutines and process_resident_memory_bytes out
// of a Prometheus text exposition.
func parseScrape(r io.Reader) (goroutines, rss int64) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		switch name {
		case "go_goroutines":
			goroutines = int64(f)
		case "process_resident_memory_bytes":
			rss = int64(f)
		}
	}
	return goroutines, rss
}
