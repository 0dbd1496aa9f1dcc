package analysis

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"analogyield/internal/circuit"
	"analogyield/internal/num"
)

// ACResult holds a small-signal frequency sweep: the complex solution
// vector at every frequency point.
type ACResult struct {
	Freqs []float64      // hertz
	X     [][]complex128 // X[i] is the solution at Freqs[i]
	net   *circuit.Netlist
}

// V returns the complex node voltage across the sweep for a named node.
func (r *ACResult) V(node string) ([]complex128, error) {
	idx, ok := r.net.NodeIndex(node)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown node %q", node)
	}
	out := make([]complex128, len(r.Freqs))
	if idx == circuit.Ground {
		return out, nil
	}
	for i, x := range r.X {
		out[i] = x[idx]
	}
	return out, nil
}

// AC performs a small-signal sweep over the given frequencies (hertz),
// linearised about the DC operating point op. Sources contribute their
// ACMag values as stimulus.
func AC(n *circuit.Netlist, op *OPResult, freqs []float64) (*ACResult, error) {
	return ACWith(n, op, freqs, nil)
}

// linearise records the small-signal stamps of every device of n about
// op into ctx, once per sweep. A tiny conductance to ground, added last,
// keeps floating small-signal nodes (e.g. isolated gates) solvable
// without affecting results.
func linearise(n *circuit.Netlist, op *OPResult, ctx *circuit.ACCtx) {
	ctx.Reset(n.NumUnknowns(), op.X)
	for di, d := range n.Devices() {
		d.StampAC(ctx, n.BranchBase(di))
	}
	for i := 0; i < n.NumNodes(); i++ {
		ctx.G.Add(i, i, 1e-12)
	}
}

// omega returns the angular frequency of f hertz.
func omega(f float64) float64 { return 2 * math.Pi * f }

// acSolve solves the recorded system at frequency f into x, reusing the
// reference pivot order. The reference factorises the sweep's first
// frequency under full partial pivoting: matrix values change smoothly
// with frequency while the structure is fixed, so every point can reuse
// its pivot order (with a deterministic per-point fallback when the
// values drift too far; see num.RefactorInto). Because each point's
// solve depends only on (f, ref), never on which point was solved
// before it, a sweep computes bit-identical results for any worker
// count.
func acSolve(rec *circuit.ACCtx, f float64, cw *num.CWorkspace, ref *num.CLU, x []complex128) error {
	rec.Assemble(omega(f), cw.A, cw.B)
	if _, err := cw.LU.RefactorInto(cw.A, ref); err != nil {
		return fmt.Errorf("analysis: AC solve at %g Hz: %w", f, err)
	}
	cw.LU.Solve(cw.B, x)
	return nil
}

// ErrInvalidFrequency reports an AC or noise frequency that is not a
// finite positive number of hertz.
var ErrInvalidFrequency = errors.New("analysis: invalid frequency")

// validFreq reports whether f is a finite positive frequency (NaN fails
// every comparison, so it is rejected too).
func validFreq(f float64) bool { return f > 0 && !math.IsInf(f, 1) }

func validateFreqs(freqs []float64) error {
	if len(freqs) == 0 {
		return fmt.Errorf("analysis: empty frequency list")
	}
	for _, f := range freqs {
		if !validFreq(f) {
			return fmt.Errorf("%w %g Hz: want a finite positive value", ErrInvalidFrequency, f)
		}
	}
	return nil
}

// ACWith is AC with reusable solver buffers: the sweep records its
// linearisation, factors and solves through ws instead of allocating. A
// nil ws allocates internally once per call.
func ACWith(n *circuit.Netlist, op *OPResult, freqs []float64, ws *Workspace) (*ACResult, error) {
	return ACWithWorkers(n, op, freqs, 1, ws)
}

// ACWithWorkers is ACWith fanned out over a pool of goroutines, each
// with its own solver buffers, claiming frequency points off a shared
// atomic counter. Every device is stamped once, into a recording the
// workers share read-only, and every point reuses the pivot order of the
// shared read-only reference factorisation (first frequency, full
// pivoting), so the result is bit-identical to ACWith — and to itself —
// for any workers value. workers <= 1, or a sweep of one point, runs
// serially.
func ACWithWorkers(n *circuit.Netlist, op *OPResult, freqs []float64, workers int, ws *Workspace) (*ACResult, error) {
	if err := validateFreqs(freqs); err != nil {
		return nil, err
	}
	nu := n.NumUnknowns()
	rec := ws.acRecording()
	linearise(n, op, rec)
	cw := ws.cplx(nu)
	ref := ws.acReference(nu)
	rec.Assemble(omega(freqs[0]), cw.A, cw.B)
	if err := ref.FactorInto(cw.A); err != nil {
		return nil, fmt.Errorf("analysis: AC solve at %g Hz: %w", freqs[0], err)
	}

	// One backing array holds every point's solution.
	res := &ACResult{Freqs: append([]float64(nil), freqs...), net: n}
	res.X = make([][]complex128, len(freqs))
	backing := make([]complex128, len(freqs)*nu)
	for i := range res.X {
		res.X[i] = backing[i*nu : (i+1)*nu : (i+1)*nu]
	}

	if workers > len(freqs) {
		workers = len(freqs)
	}
	if workers <= 1 {
		for i, f := range freqs {
			if err := acSolve(rec, f, cw, ref, res.X[i]); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wcw := cw // worker 0 reuses the caller's buffers
		if w > 0 {
			wcw = num.NewCWorkspace(nu)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(freqs) {
					return
				}
				if err := acSolve(rec, freqs[i], wcw, ref, res.X[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return res, nil
}

// ACDecade sweeps pointsPerDecade logarithmically spaced frequencies
// from fStart to fStop (inclusive endpoints).
func ACDecade(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade int) (*ACResult, error) {
	return ACDecadeWith(n, op, fStart, fStop, pointsPerDecade, nil)
}

// ACDecadeWith is ACDecade with reusable solver buffers (see ACWith).
func ACDecadeWith(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade int, ws *Workspace) (*ACResult, error) {
	return ACDecadeWorkers(n, op, fStart, fStop, pointsPerDecade, 1, ws)
}

// ACDecadeWorkers is ACDecadeWith fanned out over a worker pool (see
// ACWithWorkers); the result is bit-identical for any workers value.
func ACDecadeWorkers(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade, workers int, ws *Workspace) (*ACResult, error) {
	if !validFreq(fStart) || !validFreq(fStop) || fStop <= fStart {
		return nil, fmt.Errorf("%w: bad AC range [%g, %g] Hz", ErrInvalidFrequency, fStart, fStop)
	}
	if pointsPerDecade < 1 {
		pointsPerDecade = 10
	}
	decades := math.Log10(fStop / fStart)
	npts := int(math.Ceil(decades*float64(pointsPerDecade))) + 1
	if npts < 2 {
		npts = 2
	}
	return ACWithWorkers(n, op, num.Logspace(fStart, fStop, npts), workers, ws)
}
