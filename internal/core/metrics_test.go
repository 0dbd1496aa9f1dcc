package core

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}

	// 100 uniform observations 1..100 ms: p50 ≈ 50ms, p95 ≈ 95ms, within
	// the ±growth-factor bucket resolution.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.MeanMillis-50.5) > 0.01 {
		t.Errorf("MeanMillis = %g, want 50.5", s.MeanMillis)
	}
	if s.MaxMillis != 100 {
		t.Errorf("MaxMillis = %g, want 100", s.MaxMillis)
	}
	if s.P50Millis < 30 || s.P50Millis > 70 {
		t.Errorf("P50Millis = %g, want ≈50 within bucket resolution", s.P50Millis)
	}
	if s.P95Millis < 70 || s.P95Millis > 100 {
		t.Errorf("P95Millis = %g, want ≈95 within bucket resolution", s.P95Millis)
	}
	// Quantiles are clamped to the observed maximum and monotone.
	if s.P99Millis > s.MaxMillis || s.P50Millis > s.P95Millis || s.P95Millis > s.P99Millis {
		t.Errorf("quantiles not monotone/clamped: %+v", s)
	}
	// Negative durations are clamped, not dropped.
	h.Observe(-time.Second)
	if got := h.Snapshot().Count; got != 101 {
		t.Errorf("Count after negative observe = %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*each {
		t.Errorf("Count = %d, want %d", s.Count, goroutines*each)
	}
	if s.MaxMillis != float64(goroutines) {
		t.Errorf("MaxMillis = %g, want %d", s.MaxMillis, goroutines)
	}
}

func TestMetricsHistogramRegistry(t *testing.T) {
	var m Metrics
	h := m.Histogram("query")
	if m.Histogram("query") != h {
		t.Fatal("Histogram not idempotent per name")
	}
	h.Observe(2 * time.Millisecond)
	m.Histogram("other") // untouched histograms still snapshot

	snap := m.Snapshot()
	if snap.Latencies["query"].Count != 1 {
		t.Errorf("Latencies[query].Count = %d", snap.Latencies["query"].Count)
	}
	if snap.Latencies["other"].Count != 0 {
		t.Errorf("Latencies[other].Count = %d", snap.Latencies["other"].Count)
	}
}

func TestHistogramExport(t *testing.T) {
	var h Histogram
	buckets, count, sum := h.Export()
	if count != 0 || sum != 0 {
		t.Fatalf("empty export: count=%d sum=%g", count, sum)
	}
	if len(buckets) != histBuckets {
		t.Fatalf("bucket ladder length %d, want %d", len(buckets), histBuckets)
	}

	durations := []time.Duration{
		10 * time.Microsecond, // under histBase → bucket 0
		time.Millisecond,
		time.Millisecond,
		80 * time.Millisecond,
		time.Hour, // beyond the ladder → overflow (+Inf) bucket
	}
	var wantSum float64
	for _, d := range durations {
		h.Observe(d)
		wantSum += d.Seconds()
	}

	buckets, count, sum = h.Export()
	if count != int64(len(durations)) {
		t.Errorf("count = %d, want %d", count, len(durations))
	}
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %g, want %g", sum, wantSum)
	}
	var prevCount int64
	var prevBound float64
	for i, b := range buckets {
		if b.CumulativeCount < prevCount {
			t.Fatalf("ladder not monotone at %d: %d < %d", i, b.CumulativeCount, prevCount)
		}
		if i < len(buckets)-1 {
			if b.UpperBound <= prevBound {
				t.Fatalf("bounds not increasing at %d: %g <= %g", i, b.UpperBound, prevBound)
			}
			if b.UpperBound != histBound(i) {
				t.Fatalf("bound %d = %g, want %g", i, b.UpperBound, histBound(i))
			}
		} else if !math.IsInf(b.UpperBound, 1) {
			t.Fatalf("last bound = %g, want +Inf", b.UpperBound)
		}
		prevCount, prevBound = b.CumulativeCount, b.UpperBound
	}
	if last := buckets[len(buckets)-1].CumulativeCount; last != count {
		t.Fatalf("+Inf bucket %d != count %d", last, count)
	}
	// Every cumulative bucket count agrees with Prometheus semantics:
	// observations <= UpperBound.
	for i, b := range buckets {
		var want int64
		for _, d := range durations {
			// Observe assigns by histBucket; cumulative count through i
			// includes every duration whose bucket index <= i.
			if histBucket(d) <= i {
				want++
			}
		}
		if b.CumulativeCount != want {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.CumulativeCount, want)
		}
	}
	if snap := h.Snapshot(); snap.Count != count {
		t.Errorf("Snapshot count %d != Export count %d", snap.Count, count)
	}
}
