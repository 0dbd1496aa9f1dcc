// Distributed naive points. A plan with a ShardDispatcher splits every
// naive point's sample range into contiguous shards, evaluates shard 0
// on the local pool and farms the rest to the dispatcher — in the ayd
// server, peer replicas reached over an internal HTTP route. Because
// sample i of point p is ALWAYS process sample (Points[p].Seed, i) no
// matter which machine computes it, and because the merged sample array
// is assembled by absolute index before statistics run, a point's Result
// is bit-identical for ANY shard layout — 1, 2 or 4 replicas, or a peer
// failing over to local evaluation mid-run. That invariant is the
// correctness contract of cluster mode and is pinned by tests.
package montecarlo

import (
	"context"
	"sync"
	"sync/atomic"
)

// ShardDispatcher farms sample shards to remote evaluators.
// Implementations must be safe for concurrent use.
type ShardDispatcher interface {
	// Shards reports how many remote shards to peel off each point (0
	// disables distribution; each point is then fully local).
	Shards() int
	// EvalShard evaluates samples [lo, hi) of one point remotely and
	// returns hi-lo rows: rows[k] holds the metrics of sample lo+k,
	// computed from process sample (seed, lo+k); a nil row marks a
	// failed sample. A non-nil error means the whole shard is unserved —
	// the scheduler then evaluates the range locally, preserving
	// bit-identical results.
	EvalShard(ctx context.Context, genes []float64, seed int64, lo, hi int) ([][]float64, error)
}

// shardRanges splits [0, n) into parts contiguous ranges, sized as
// evenly as possible (the first n%parts ranges get one extra sample).
// Purely a function of (n, parts), so every replica computes the same
// layout.
func shardRanges(n, parts int) [][2]int {
	if parts <= 1 || n <= 0 {
		return [][2]int{{0, n}}
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// shard evaluates naive point p's samples across the local pool and the
// dispatcher's remote shards, storing rows into res and counting failed
// samples in failed. run evaluates a range of sample indices locally.
func (e *engine) shard(ctx context.Context, p int, res *Result, failed *atomic.Int64, run func(idxs []int)) {
	ranges := shardRanges(len(res.Samples), e.shards+1)
	var fetchers sync.WaitGroup
	for _, r := range ranges[1:] {
		fetchers.Add(1)
		go func(lo, hi int) {
			defer fetchers.Done()
			rows := e.fetch(ctx, p, lo, hi)
			if rows == nil {
				// Unserved shard: evaluate it here. Same samples, same
				// derivation — the result cannot differ.
				run(ints(lo, hi))
				return
			}
			for k, row := range rows {
				if row == nil {
					failed.Add(1)
					continue
				}
				res.Samples[lo+k] = row
			}
		}(r[0], r[1])
	}
	// Shard 0 stays local: the owning replica always contributes, and a
	// point never stalls on peers alone.
	run(ints(ranges[0][0], ranges[0][1]))
	fetchers.Wait()
}

// fetch asks the dispatcher for samples [lo, hi) of point p once one of
// the run's remote-call slots is free. It returns the rows only when the
// shard came back whole — hi−lo rows, each nil (a failed sample) or as
// wide as the plan's metrics — and nil otherwise, so a peer on another
// build costs throughput, never a panic or a wrong result.
func (e *engine) fetch(ctx context.Context, p, lo, hi int) [][]float64 {
	select {
	case e.remote <- struct{}{}:
	case <-ctx.Done():
		return nil
	}
	pt := e.plan.Points[p]
	rows, err := e.plan.Dispatcher.EvalShard(ctx, pt.Genes, pt.Seed, lo, hi)
	<-e.remote
	if err != nil || len(rows) != hi-lo {
		return nil
	}
	for _, row := range rows {
		if row != nil && len(row) != len(e.plan.Metrics) {
			return nil
		}
	}
	return rows
}
