package analysis

import (
	"errors"
	"fmt"
	"math"

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
	// One backing array holds every point's solution.
	nu := n.NumUnknowns()
	res := &ACResult{Freqs: append([]float64(nil), freqs...), net: n}
	res.X = make([][]complex128, len(freqs))
	backing := make([]complex128, len(freqs)*nu)
	for i := range res.X {
		res.X[i] = backing[i*nu : (i+1)*nu : (i+1)*nu]
	}
	err := ACPrefix(n, op, freqs, ws, func(i int, x []complex128) bool {
		copy(res.X[i], x)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ACPrefix solves the AC sweep over freqs point by point in frequency
// order, linearised about op, and hands each point's solution to visit;
// the sweep stops after the first point for which visit returns false.
// x is a buffer of ws, valid only during the call. A nil ws allocates
// internally once per call.
//
// Every device is stamped once, into a recording of the linearisation,
// and the system at freqs[0] is factorised under full partial pivoting:
// the reference whose pivot order every point reuses. Matrix values
// change smoothly with frequency while the structure is fixed (with a
// deterministic per-point fallback when the values drift too far; see
// num.RefactorInto). Each point depends only on its frequency and the
// reference, never on the points solved before it, so the points a
// stopped sweep solved are bit-identical to the same points of the full
// sweep.
func ACPrefix(n *circuit.Netlist, op *OPResult, freqs []float64, ws *Workspace, visit func(i int, x []complex128) bool) error {
	if err := validateFreqs(freqs); err != nil {
		return err
	}
	nu := n.NumUnknowns()
	rec := ws.acRecording()
	linearise(n, op, rec)
	cw := ws.cplx(nu)
	ref := ws.acReference(nu)
	rec.Assemble(omega(freqs[0]), cw.A, cw.B)
	if err := ref.FactorInto(cw.A); err != nil {
		return fmt.Errorf("analysis: AC solve at %g Hz: %w", freqs[0], err)
	}
	for i, f := range freqs {
		rec.Assemble(omega(f), cw.A, cw.B)
		if _, err := cw.LU.RefactorInto(cw.A, ref); err != nil {
			return fmt.Errorf("analysis: AC solve at %g Hz: %w", f, err)
		}
		cw.LU.Solve(cw.B, cw.X)
		if !visit(i, cw.X) {
			return nil
		}
	}
	return nil
}

// ACDecade sweeps pointsPerDecade logarithmically spaced frequencies
// from fStart to fStop (inclusive endpoints).
func ACDecade(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade int) (*ACResult, error) {
	return ACDecadeWith(n, op, fStart, fStop, pointsPerDecade, nil)
}

// ACDecadeWith is ACDecade with reusable solver buffers (see ACWith).
func ACDecadeWith(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade int, ws *Workspace) (*ACResult, error) {
	freqs, err := DecadeFreqs(fStart, fStop, pointsPerDecade)
	if err != nil {
		return nil, err
	}
	return ACWith(n, op, freqs, ws)
}

// DecadeFreqs returns the grid ACDecade sweeps: pointsPerDecade
// logarithmically spaced frequencies per decade from fStart to fStop,
// both endpoints included (pointsPerDecade < 1 selects 10).
func DecadeFreqs(fStart, fStop float64, pointsPerDecade int) ([]float64, error) {
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
	return num.Logspace(fStart, fStop, npts), nil
}
