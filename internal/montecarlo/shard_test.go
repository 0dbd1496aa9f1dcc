package montecarlo

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"analogyield/internal/process"
)

// peerDispatcher simulates remote replicas: it evaluates shards with
// the same per-(seed, index) sample derivation a peer would use, on its
// own process instance (a peer has its own).
type peerDispatcher struct {
	shards int
	proc   *process.Process
	eval   func(genes []float64, s *process.Sample) ([]float64, error)
	calls  atomic.Int64
}

func (d *peerDispatcher) Shards() int { return d.shards }

func (d *peerDispatcher) EvalShard(ctx context.Context, genes []float64, seed int64, lo, hi int) ([][]float64, error) {
	d.calls.Add(1)
	rows := make([][]float64, hi-lo)
	for i := lo; i < hi; i++ {
		m, err := d.eval(genes, d.proc.NewSample(seed, i))
		if err != nil {
			continue // nil row = failed sample
		}
		rows[i-lo] = m
	}
	return rows, nil
}

// failingDispatcher refuses every shard, forcing full local fallback.
type failingDispatcher struct{ shards int }

func (d failingDispatcher) Shards() int { return d.shards }
func (d failingDispatcher) EvalShard(context.Context, []float64, int64, int, int) ([][]float64, error) {
	return nil, errors.New("peer unreachable")
}

// flakyDispatcher serves every other shard call and fails the rest.
type flakyDispatcher struct {
	peerDispatcher
	n atomic.Int64
}

func (d *flakyDispatcher) EvalShard(ctx context.Context, genes []float64, seed int64, lo, hi int) ([][]float64, error) {
	if d.n.Add(1)%2 == 0 {
		return nil, errors.New("peer flaked")
	}
	return d.peerDispatcher.EvalShard(ctx, genes, seed, lo, hi)
}

// genesEval routes the shared batchEval through a genes vector whose
// first element is the point index, so local and remote evaluation see
// identical inputs per point.
func genesEval(genes []float64, s *process.Sample) ([]float64, error) {
	sh := s.DeviceShift(process.NMOS, 10e-6, 10e-6)
	if sh.DVth > 0.8e-3 {
		return nil, errors.New("sample failed") // deterministic per sample
	}
	return []float64{genes[0] + sh.DVth, 1 - sh.DVth}, nil
}

func shardGenes(n int) [][]float64 {
	out := make([][]float64, n)
	for p := range out {
		out[p] = []float64{float64(p)}
	}
	return out
}

// shardSpecs attaches each point's genome to batchSpecs.
func shardSpecs() []PointSpec {
	specs := batchSpecs()
	genes := shardGenes(len(specs))
	for p := range specs {
		specs[p].Genes = genes[p]
	}
	return specs
}

// genesFactory evaluates each point through its genome, as a peer does.
func genesFactory(specs []PointSpec) Factory {
	return func() PointEvaluator {
		return func(point int, s *process.Sample) ([]float64, error) { return genesEval(specs[point].Genes, s) }
	}
}

// referenceResults computes the plan on one node and one worker — the
// single-node truth every shard layout must reproduce bit for bit.
func referenceResults(t *testing.T, specs []PointSpec) []*Result {
	t.Helper()
	return runDistributed(t, specs, nil, 1)
}

func runDistributed(t *testing.T, specs []PointSpec, disp ShardDispatcher, workers int) []*Result {
	t.Helper()
	var got []*Result
	var order []int
	err := Run(context.Background(),
		Plan{Proc: proc(), Points: specs, Workers: workers, Metrics: []string{"a", "b"}, Dispatcher: disp},
		genesFactory(specs),
		func(point int, res *Result, err error) error {
			if err != nil {
				return err
			}
			order = append(order, point)
			got = append(got, res)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range order {
		if p != i {
			t.Fatalf("delivery order %v", order)
		}
	}
	return got
}

// TestRunBatchDistributedBitIdentical pins the cluster correctness
// contract: for ANY shard layout (0/1/2/3 remote shards — i.e. 1, 2, 3
// or 4 replicas' worth of splitting) and any worker count, every
// point's Result is bit-identical to the single-node run, with either
// item size (a multi-point plan and a one-point plan).
func TestRunBatchDistributedBitIdentical(t *testing.T) {
	specs := shardSpecs()
	want := referenceResults(t, specs)
	for _, shards := range []int{0, 1, 2, 3} {
		for _, workers := range []int{1, 4} {
			var disp ShardDispatcher
			if shards > 0 {
				disp = &peerDispatcher{shards: shards, proc: proc(), eval: genesEval}
			}
			got := runDistributed(t, specs, disp, workers)
			for p := range specs {
				if !reflect.DeepEqual(got[p], want[p]) {
					t.Errorf("shards=%d workers=%d: point %d differs from single-node run (failed %d vs %d)",
						shards, workers, p, got[p].Failed, want[p].Failed)
				}
			}
			one := runDistributed(t, specs[3:], disp, workers)
			if !reflect.DeepEqual(one[0], want[3]) {
				t.Errorf("shards=%d workers=%d: one-point plan differs from single-node run", shards, workers)
			}
		}
	}
}

// TestRunBatchDistributedRemoteActuallyUsed guards against a scheduler
// that silently evaluates everything locally (which would also pass the
// bit-identity test), and checks only naive plans are sharded.
func TestRunBatchDistributedRemoteActuallyUsed(t *testing.T) {
	specs := shardSpecs()
	disp := &peerDispatcher{shards: 2, proc: proc(), eval: genesEval}
	runDistributed(t, specs, disp, 2)
	if disp.calls.Load() == 0 {
		t.Fatal("dispatcher never called")
	}
	is := &peerDispatcher{shards: 2, proc: proc(), eval: genesEval}
	err := Run(context.Background(),
		Plan{Proc: proc(), Points: specs, Variance: VarianceOptions{Strategy: StrategyIS}, Dispatcher: is},
		genesFactory(specs), func(_ int, _ *Result, err error) error { return err })
	if err != nil {
		t.Fatal(err)
	}
	if n := is.calls.Load(); n != 0 {
		t.Errorf("an importance-sampled plan sent %d shards to peers", n)
	}
}

// slowDispatcher is a peerDispatcher whose calls take a while, and
// which records the most calls it ever had in flight at once.
type slowDispatcher struct {
	peerDispatcher
	inFlight, peak atomic.Int64
}

func (d *slowDispatcher) EvalShard(ctx context.Context, genes []float64, seed int64, lo, hi int) ([][]float64, error) {
	n := d.inFlight.Add(1)
	defer d.inFlight.Add(-1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	return d.peerDispatcher.EvalShard(ctx, genes, seed, lo, hi)
}

// TestRunShardCallsBounded pins the load one run puts on its peers: at
// most four calls per remote shard in flight at once, however many
// points and workers the plan has, so a peer's heavy-route cap does not
// shed the owner's shards back to local evaluation.
func TestRunShardCallsBounded(t *testing.T) {
	specs := make([]PointSpec, 40)
	for p := range specs {
		specs[p] = PointSpec{Seed: int64(p + 1), Samples: 20, Genes: []float64{float64(p)}}
	}
	const shards = 3
	disp := &slowDispatcher{peerDispatcher: peerDispatcher{shards: shards, proc: proc(), eval: genesEval}}
	runDistributed(t, specs, disp, 8)
	if got := disp.calls.Load(); got != int64(len(specs)*shards) {
		t.Errorf("dispatcher served %d shards, want %d", got, len(specs)*shards)
	}
	if peak := disp.peak.Load(); peak > 4*shards {
		t.Errorf("%d shard calls in flight at once, want at most %d", peak, 4*shards)
	}
}

// raggedDispatcher answers every shard with one-column rows, as a peer
// on another build might.
type raggedDispatcher struct {
	shards int
	calls  atomic.Int64
}

func (d *raggedDispatcher) Shards() int { return d.shards }
func (d *raggedDispatcher) EvalShard(_ context.Context, _ []float64, _ int64, lo, hi int) ([][]float64, error) {
	d.calls.Add(1)
	rows := make([][]float64, hi-lo)
	for k := range rows {
		rows[k] = []float64{float64(k)}
	}
	return rows, nil
}

// TestRunBatchDistributedFallback pins degraded-mode correctness: with
// every peer down, flaking or answering rows of the wrong width,
// results still match the single-node run bit for bit — the unserved
// shards are re-evaluated locally.
func TestRunBatchDistributedFallback(t *testing.T) {
	specs := shardSpecs()
	want := referenceResults(t, specs)

	ragged := &raggedDispatcher{shards: 2}
	dispatchers := map[string]ShardDispatcher{
		"all-peers-down": failingDispatcher{shards: 3},
		"flaky-peers":    &flakyDispatcher{peerDispatcher: peerDispatcher{shards: 2, proc: proc(), eval: genesEval}},
		"ragged-rows":    ragged,
	}
	for name, disp := range dispatchers {
		t.Run(name, func(t *testing.T) {
			got := runDistributed(t, specs, disp, 2)
			for p := range specs {
				if !reflect.DeepEqual(got[p], want[p]) {
					t.Errorf("point %d differs from single-node run", p)
				}
			}
		})
	}
	if ragged.calls.Load() == 0 {
		t.Error("ragged dispatcher never called")
	}
}

// TestRunBatchDistributedCancel mirrors the local cancellation
// semantics: the scheduler unwinds promptly and reports ctx.Err().
func TestRunBatchDistributedCancel(t *testing.T) {
	specs := []PointSpec{{Seed: 1, Samples: 400}, {Seed: 2, Samples: 400}, {Seed: 3, Samples: 400}}
	genes := shardGenes(len(specs))
	for p := range specs {
		specs[p].Genes = genes[p]
	}
	ctx, cancel := context.WithCancel(context.Background())
	disp := &peerDispatcher{shards: 2, proc: proc(), eval: genesEval}
	delivered := 0
	err := Run(ctx,
		Plan{Proc: proc(), Points: specs, Workers: 2, Metrics: []string{"a", "b"}, Dispatcher: disp},
		func() PointEvaluator {
			return func(point int, s *process.Sample) ([]float64, error) {
				cancel() // first evaluation pulls the plug
				return genesEval(genes[point], s)
			}
		},
		func(point int, res *Result, err error) error {
			delivered++
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, parts int
		want     [][2]int
	}{
		{10, 1, [][2]int{{0, 10}}},
		{10, 2, [][2]int{{0, 5}, {5, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{3, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{200, 4, [][2]int{{0, 50}, {50, 100}, {100, 150}, {150, 200}}},
	}
	for _, c := range cases {
		got := shardRanges(c.n, c.parts)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("shardRanges(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
		}
		// Ranges must tile [0, n) exactly.
		lo := 0
		for _, r := range got {
			if r[0] != lo {
				t.Errorf("shardRanges(%d,%d): gap at %d", c.n, c.parts, lo)
			}
			lo = r[1]
		}
		if lo != c.n {
			t.Errorf("shardRanges(%d,%d) covers [0,%d), want [0,%d)", c.n, c.parts, lo, c.n)
		}
	}
}
