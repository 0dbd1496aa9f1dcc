package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"analogyield/internal/analysis"
)

// Metrics is the flow's counter registry: evaluation counts, solver
// failures, genome-cache traffic, dropped points, checkpoints, and
// per-stage wall clock. All methods are safe for concurrent use, so one
// registry may be shared by several flows (a long-lived server
// accumulates across runs). The zero value is ready to use; the ayd
// server exports it at GET /metrics (internal/telemetry).
type Metrics struct {
	evaluations    atomic.Int64
	mcSimulations  atomic.Int64
	solverFailures atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	droppedPoints  atomic.Int64
	checkpoints    atomic.Int64
	flows          atomic.Int64
	mooNanos       atomic.Int64
	mcNanos        atomic.Int64
	tablesNanos    atomic.Int64

	// Operating-point solver work (see analysis.OPStats), folded in
	// once per flow stage.
	opSolves        atomic.Int64
	opIterations    atomic.Int64
	opWarmFallbacks atomic.Int64
	acPoints        atomic.Int64
	acOffPlan       atomic.Int64

	// MC scheduler occupancy gauges (see montecarlo.Gauges) plus their
	// observed peaks — the peaks survive the run, so a post-hoc scrape
	// still shows how parallel the stage actually was.
	mcBusyWorkers    gauge
	mcQueueDepth     gauge
	mcPointsInFlight gauge

	// Cluster counters, populated only when the server runs with a
	// replica identity: lease traffic (jobs claimed, takeovers of
	// crashed peers' jobs, fenced writes rejected).
	replicaMu       sync.Mutex
	replica         string
	leasesHeld      atomic.Int64
	leaseAcquired   atomic.Int64
	leaseTakeovers  atomic.Int64
	leaseRejections atomic.Int64

	histMu sync.Mutex
	hists  map[string]*Histogram
}

// MetricsSnapshot is a point-in-time copy of a Metrics registry, as
// rendered by otaflow's summary and the /metrics exposition.
type MetricsSnapshot struct {
	Flows          int64   `json:"flows"`
	Evaluations    int64   `json:"evaluations"`
	MCSimulations  int64   `json:"mc_simulations"`
	SolverFailures int64   `json:"solver_failures"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	DroppedPoints  int64   `json:"dropped_points"`
	Checkpoints    int64   `json:"checkpoints"`
	MOOSeconds     float64 `json:"moo_seconds"`
	MCSeconds      float64 `json:"mc_seconds"`
	TablesSeconds  float64 `json:"tables_seconds"`
	// Operating-point solver work: solves, Newton iterations (failed
	// attempts included) and warm starts that fell back to the zero
	// start. Iterations per solve is what the MC warm start moves.
	OPSolves        int64 `json:"op_solves"`
	OPIterations    int64 `json:"op_iterations"`
	OPWarmFallbacks int64 `json:"op_warm_fallbacks"`
	// AC sweep points solved, and those factored afresh off their
	// sweep's elimination plan (see num.CPlan).
	ACPoints  int64 `json:"ac_points"`
	ACOffPlan int64 `json:"ac_off_plan"`
	// MC scheduler occupancy: current values are live gauges (zero
	// between runs); peaks are high-water marks across the registry's
	// lifetime.
	MCBusyWorkers        int64 `json:"mc_busy_workers"`
	MCBusyWorkersPeak    int64 `json:"mc_busy_workers_peak"`
	MCQueueDepth         int64 `json:"mc_queue_depth"`
	MCQueueDepthPeak     int64 `json:"mc_queue_depth_peak"`
	MCPointsInFlight     int64 `json:"mc_points_in_flight"`
	MCPointsInFlightPeak int64 `json:"mc_points_in_flight_peak"`
	// Cluster counters; all omitted for single-node registries, so the
	// snapshot JSON of earlier releases is unchanged.
	Replica         string `json:"replica,omitempty"`
	LeasesHeld      int64  `json:"leases_held,omitempty"`
	LeaseAcquired   int64  `json:"lease_acquired,omitempty"`
	LeaseTakeovers  int64  `json:"lease_takeovers,omitempty"`
	LeaseRejections int64  `json:"lease_rejections,omitempty"`
	// Latencies carries one snapshot per named latency histogram (see
	// Metrics.Histogram); nil when the registry has none.
	Latencies map[string]HistogramSnapshot `json:"latencies,omitempty"`
}

// gauge is an atomic level indicator with a high-water mark.
type gauge struct {
	cur, peak atomic.Int64
}

func (g *gauge) add(delta int64) {
	v := g.cur.Add(delta)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// AddBusyWorkers, AddQueueDepth and AddPointsInFlight implement
// montecarlo.Gauges, so a Metrics registry can be handed to
// montecarlo.Run as its occupancy sink.
func (m *Metrics) AddBusyWorkers(delta int64)    { m.mcBusyWorkers.add(delta) }
func (m *Metrics) AddQueueDepth(delta int64)     { m.mcQueueDepth.add(delta) }
func (m *Metrics) AddPointsInFlight(delta int64) { m.mcPointsInFlight.add(delta) }

// SetReplica records this process's replica identity for cluster-mode
// exposition; single-node deployments never call it and keep the
// pre-cluster snapshot shape.
func (m *Metrics) SetReplica(id string) {
	m.replicaMu.Lock()
	m.replica = id
	m.replicaMu.Unlock()
}

// Replica returns the recorded replica identity ("" when single-node).
func (m *Metrics) Replica() string {
	m.replicaMu.Lock()
	defer m.replicaMu.Unlock()
	return m.replica
}

// AddOPStats folds the operating-point and AC sweep counters of
// finished solver workspaces into the registry.
func (m *Metrics) AddOPStats(s analysis.OPStats) {
	m.opSolves.Add(int64(s.Solves))
	m.opIterations.Add(int64(s.Iterations))
	m.opWarmFallbacks.Add(int64(s.WarmFallbacks))
	m.acPoints.Add(int64(s.ACPoints))
	m.acOffPlan.Add(int64(s.ACOffPlan))
}

// AddLeasesHeld moves the held-lease gauge (+1 on acquire/adopt, -1 on
// release); the remaining cluster counters are monotone event counts.
func (m *Metrics) AddLeasesHeld(delta int64) { m.leasesHeld.Add(delta) }
func (m *Metrics) LeasesHeld() int64         { return m.leasesHeld.Load() }
func (m *Metrics) IncLeaseAcquired()         { m.leaseAcquired.Add(1) }
func (m *Metrics) IncLeaseTakeovers()        { m.leaseTakeovers.Add(1) }
func (m *Metrics) IncLeaseRejections()       { m.leaseRejections.Add(1) }

func (m *Metrics) addStage(s Stage, d time.Duration) {
	switch s {
	case StageMOO:
		m.mooNanos.Add(int64(d))
	case StageMC:
		m.mcNanos.Add(int64(d))
	case StageTables:
		m.tablesNanos.Add(int64(d))
	}
}

// Histogram returns the named latency histogram, creating it on first
// use. Histograms live inside the registry, so a server's per-route
// latency distributions are exported alongside the flow counters.
func (m *Metrics) Histogram(name string) *Histogram {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	if m.hists == nil {
		m.hists = make(map[string]*Histogram)
	}
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Snapshot returns a consistent-enough copy of the counters (each field
// is read atomically; the set is not a single transaction).
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Flows:          m.flows.Load(),
		Evaluations:    m.evaluations.Load(),
		MCSimulations:  m.mcSimulations.Load(),
		SolverFailures: m.solverFailures.Load(),
		CacheHits:      m.cacheHits.Load(),
		CacheMisses:    m.cacheMisses.Load(),
		DroppedPoints:  m.droppedPoints.Load(),
		Checkpoints:    m.checkpoints.Load(),
		MOOSeconds:     time.Duration(m.mooNanos.Load()).Seconds(),
		MCSeconds:      time.Duration(m.mcNanos.Load()).Seconds(),
		TablesSeconds:  time.Duration(m.tablesNanos.Load()).Seconds(),

		OPSolves:        m.opSolves.Load(),
		OPIterations:    m.opIterations.Load(),
		OPWarmFallbacks: m.opWarmFallbacks.Load(),
		ACPoints:        m.acPoints.Load(),
		ACOffPlan:       m.acOffPlan.Load(),

		MCBusyWorkers:        m.mcBusyWorkers.cur.Load(),
		MCBusyWorkersPeak:    m.mcBusyWorkers.peak.Load(),
		MCQueueDepth:         m.mcQueueDepth.cur.Load(),
		MCQueueDepthPeak:     m.mcQueueDepth.peak.Load(),
		MCPointsInFlight:     m.mcPointsInFlight.cur.Load(),
		MCPointsInFlightPeak: m.mcPointsInFlight.peak.Load(),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	m.replicaMu.Lock()
	s.Replica = m.replica
	m.replicaMu.Unlock()
	s.LeasesHeld = m.leasesHeld.Load()
	s.LeaseAcquired = m.leaseAcquired.Load()
	s.LeaseTakeovers = m.leaseTakeovers.Load()
	s.LeaseRejections = m.leaseRejections.Load()
	m.histMu.Lock()
	if len(m.hists) > 0 {
		s.Latencies = make(map[string]HistogramSnapshot, len(m.hists))
		for name, h := range m.hists {
			s.Latencies[name] = h.Snapshot()
		}
	}
	m.histMu.Unlock()
	return s
}

// histBuckets is the number of exponential latency buckets. Bucket i
// spans [histBase·histGrowth^(i-1), histBase·histGrowth^i); the ladder
// runs from 50µs to ~7 minutes, wide enough for a spline lookup and a
// queued flow submission alike.
const (
	histBuckets = 48
	histBase    = 50e-6
	histGrowth  = 1.4
)

// Histogram is a fixed-bucket exponential latency histogram with
// lock-free recording, designed for hot request paths: Observe is a
// bucket increment and a duration-sum add (plus a read-mostly atomic
// max update). Readers derive the count from the bucket reads
// themselves. Quantiles are estimated by linear interpolation inside
// the matched bucket, which is accurate to the bucket's ±20%
// resolution — plenty for p50/p95 alerts. The zero value is ready to
// use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sumNano atomic.Int64
	maxNano atomic.Int64
}

// load reads every bucket once and returns the counts with their total
// (each bucket is read atomically; the set is not a single
// transaction, but the total always equals the counts' sum).
func (h *Histogram) load() (counts [histBuckets]int64, total int64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// HistogramSnapshot is a point-in-time quantile summary, in
// milliseconds (the unit route latencies are read in).
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	MeanMillis float64 `json:"mean_ms"`
	P50Millis  float64 `json:"p50_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
	MaxMillis  float64 `json:"max_ms"`
}

// histBucket maps a duration to its bucket index.
func histBucket(d time.Duration) int {
	s := d.Seconds()
	if s <= histBase {
		return 0
	}
	i := int(math.Ceil(math.Log(s/histBase) / math.Log(histGrowth)))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBound returns the upper bound of bucket i in seconds.
func histBound(i int) float64 {
	return histBase * math.Pow(histGrowth, float64(i))
}

// Observe records one measured duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[histBucket(d)].Add(1)
	h.sumNano.Add(int64(d))
	// The max cell is read on every Observe but written only when a new
	// maximum appears, so it stays in the shared cache state almost all
	// the time.
	for {
		cur := h.maxNano.Load()
		if int64(d) <= cur || h.maxNano.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Quantile estimates the q-th quantile (0 < q < 1) in seconds; it
// returns 0 when nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	counts, total := h.load()
	return h.quantile(&counts, total, q)
}

// quantile estimates the q-th quantile from one load of the buckets.
func (h *Histogram) quantile(counts *[histBuckets]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		n := float64(c)
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = histBound(i - 1)
			}
			hi := histBound(i)
			if max := float64(h.maxNano.Load()) / 1e9; hi > max {
				hi = max // never report beyond the observed maximum
			}
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(h.maxNano.Load()) / 1e9
}

// HistogramBucket is one cumulative bucket of Histogram.Export, in
// Prometheus histogram semantics: CumulativeCount observations were
// <= UpperBound seconds. The last bucket's bound is +Inf.
type HistogramBucket struct {
	UpperBound      float64
	CumulativeCount int64
}

// Export returns the full cumulative bucket ladder plus the total count
// and the sum of observations in seconds — exactly the triplet a
// Prometheus histogram exposition needs. The count is derived from the
// bucket reads themselves, so the ladder is always internally monotone
// and its +Inf bucket always equals the returned count, even while
// observations race in.
func (h *Histogram) Export() (buckets []HistogramBucket, count int64, sumSeconds float64) {
	buckets = make([]HistogramBucket, histBuckets)
	var cum int64
	for i := range buckets {
		cum += h.buckets[i].Load()
		ub := histBound(i)
		if i == histBuckets-1 {
			ub = math.Inf(1)
		}
		buckets[i] = HistogramBucket{UpperBound: ub, CumulativeCount: cum}
	}
	return buckets, cum, float64(h.sumNano.Load()) / 1e9
}

// Snapshot summarises the histogram (counts are read atomically; the
// set is not a single transaction).
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts, total := h.load()
	s := HistogramSnapshot{
		Count:     total,
		P50Millis: 1e3 * h.quantile(&counts, total, 0.50),
		P95Millis: 1e3 * h.quantile(&counts, total, 0.95),
		P99Millis: 1e3 * h.quantile(&counts, total, 0.99),
		MaxMillis: float64(h.maxNano.Load()) / 1e6,
	}
	if total > 0 {
		s.MeanMillis = float64(h.sumNano.Load()) / 1e6 / float64(total)
	}
	return s
}
