// Package analysis drives the MNA solutions of a netlist: DC operating
// point (Newton-Raphson with gmin and source stepping), DC sweeps, AC
// small-signal sweeps over frequency, and transient simulation with
// trapezoidal/backward-Euler companion models.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"analogyield/internal/circuit"
	"analogyield/internal/num"
)

// ErrNoConvergence is returned when every convergence aid fails.
var ErrNoConvergence = errors.New("analysis: operating point did not converge")

// OPOptions tunes the DC operating-point solver. The zero value selects
// the defaults documented on each field.
type OPOptions struct {
	MaxIter int       // Newton iterations per solve attempt (default 150)
	VTol    float64   // absolute node-voltage tolerance, V (default 1e-6)
	ITol    float64   // absolute branch-current tolerance, A (default 1e-9)
	Gmin    float64   // diagonal conductance floor, S (default 1e-12)
	VStep   float64   // per-iteration voltage damping limit, V (default 0.5)
	X0      []float64 // initial guess (optional; length NumUnknowns)
	// WS, when non-nil, supplies reusable solver buffers so repeated
	// solves (GA evaluations, Monte Carlo samples, sweeps) do not
	// allocate. nil allocates internally once per call.
	WS *Workspace
}

func (o *OPOptions) withDefaults() OPOptions {
	out := OPOptions{MaxIter: 150, VTol: 1e-6, ITol: 1e-9, Gmin: 1e-12, VStep: 0.5}
	if o == nil {
		return out
	}
	if o.MaxIter > 0 {
		out.MaxIter = o.MaxIter
	}
	if o.VTol > 0 {
		out.VTol = o.VTol
	}
	if o.ITol > 0 {
		out.ITol = o.ITol
	}
	if o.Gmin > 0 {
		out.Gmin = o.Gmin
	}
	if o.VStep > 0 {
		out.VStep = o.VStep
	}
	out.X0 = o.X0
	out.WS = o.WS
	return out
}

// OPResult is a solved DC operating point.
type OPResult struct {
	X          []float64 // node voltages then branch currents
	Iterations int       // Newton iterations of the successful attempt
	net        *circuit.Netlist
}

// V returns the solved voltage at a named node.
func (r *OPResult) V(node string) (float64, error) {
	idx, ok := r.net.NodeIndex(node)
	if !ok {
		return 0, fmt.Errorf("analysis: unknown node %q", node)
	}
	if idx == circuit.Ground {
		return 0, nil
	}
	return r.X[idx], nil
}

// VNode returns the voltage at a node index (0 for ground).
func (r *OPResult) VNode(idx int) float64 {
	if idx == circuit.Ground {
		return 0
	}
	return r.X[idx]
}

// newton runs damped Newton-Raphson at a fixed gmin and source scale,
// starting from x (modified in place), solving through the reusable
// buffers of ws. It reports convergence.
func newton(n *circuit.Netlist, x []float64, opts OPOptions, gmin, srcScale float64, ws *num.Workspace) (int, bool) {
	nn := n.NumNodes()
	J, B, xn := ws.J, ws.B, ws.Xn
	ctx := &circuit.DCCtx{J: J, B: B, X: x, SourceScale: srcScale}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		J.Zero()
		for i := range B {
			B[i] = 0
		}
		for di, d := range n.Devices() {
			d.StampDC(ctx, n.BranchBase(di))
		}
		for i := 0; i < nn; i++ {
			J.Add(i, i, gmin)
		}
		// The Jacobian's structure is fixed across the iteration, so
		// after the first full partial-pivot factorisation the later
		// iterates reuse its pivot order (with a deterministic
		// stability fallback). The chain is seeded fresh at iteration 1
		// of every call, so the result never depends on what the
		// workspace solved before — a Monte Carlo or GA worker pool
		// stays bit-identical for any scheduling.
		var ferr error
		if iter == 1 {
			ferr = ws.LU.FactorInto(J)
		} else {
			_, ferr = ws.LU.RefactorInto(J, ws.LU)
		}
		if ferr != nil {
			return iter, false
		}
		ws.LU.Solve(B, xn)
		// Damping: limit node-voltage steps.
		worst := 0.0
		for i := 0; i < len(x); i++ {
			dx := xn[i] - x[i]
			if i < nn && math.Abs(dx) > opts.VStep {
				dx = math.Copysign(opts.VStep, dx)
			}
			x[i] += dx
			tol := opts.ITol
			if i < nn {
				tol = opts.VTol
			}
			if m := math.Abs(dx) / tol; m > worst {
				worst = m
			}
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return iter, false
			}
		}
		if worst < 1 {
			return iter, true
		}
	}
	return opts.MaxIter, false
}

// OP solves the DC operating point. It first tries plain Newton from the
// supplied (or zero) initial guess, then gmin stepping, then source
// stepping.
func OP(n *circuit.Netlist, o *OPOptions) (*OPResult, error) {
	opts := o.withDefaults()
	nu := n.NumUnknowns()
	start := make([]float64, nu)
	if opts.X0 != nil {
		if len(opts.X0) != nu {
			return nil, fmt.Errorf("analysis: X0 has %d entries, want %d", len(opts.X0), nu)
		}
		copy(start, opts.X0)
	}
	ws := opts.WS.real(nu)
	work := 0 // Newton iterations of every attempt, failed ones included
	defer func() { opts.WS.countOP(work) }()
	step := func(x []float64, gmin, srcScale float64) (int, bool) {
		it, ok := newton(n, x, opts, gmin, srcScale, ws)
		work += it
		return it, ok
	}

	// Attempt 1: plain Newton.
	x := append([]float64(nil), start...)
	if it, ok := step(x, opts.Gmin, 1); ok {
		return &OPResult{X: x, Iterations: it, net: n}, nil
	}

	// Attempt 2: gmin stepping from a heavily damped system.
	copy(x, start)
	okAll := true
	total := 0
	for _, g := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, opts.Gmin} {
		it, ok := step(x, g, 1)
		total += it
		if !ok {
			okAll = false
			break
		}
	}
	if okAll {
		return &OPResult{X: x, Iterations: total, net: n}, nil
	}

	// Attempt 3: source stepping.
	for i := range x {
		x[i] = 0
	}
	total = 0
	okAll = true
	for _, s := range []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0} {
		it, ok := step(x, opts.Gmin, s)
		total += it
		if !ok {
			// Retry this step with elevated gmin before giving up.
			it2, ok2 := step(x, 1e-6, s)
			total += it2
			if !ok2 {
				okAll = false
				break
			}
		}
	}
	if okAll {
		// Final polish at full sources and floor gmin.
		if it, ok := step(x, opts.Gmin, 1); ok {
			return &OPResult{X: x, Iterations: total + it, net: n}, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoConvergence, n.Stats())
}

// SampleOP solves the operating point of n, one statistical sample of a
// design, by plain Newton at the floor gmin from the design's nominal
// operating point, which lies a few iterations from every sample's.
//
// key names the design: a non-nil comparable value, equal for two calls
// exactly when their designs' nominal netlists are equal. nominal builds
// that netlist; its operating point is solved from the zero start on
// first use and memoised in ws under key, so a worker evaluating a run
// of samples of one design solves it once. The start is therefore a pure
// function of the design, never of what ws solved before, and results
// are bit-identical for any assignment of samples to workspaces. When
// the nominal operating point does not converge, or Newton from it does
// not, the result is exactly OP(n, &OPOptions{WS: ws}).
//
// A nil ws solves the nominal operating point afresh on every call.
func SampleOP(n *circuit.Netlist, key any, nominal func() *circuit.Netlist, ws *Workspace) (*OPResult, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if x0 := ws.nominalOP(key, nominal); len(x0) == n.NumUnknowns() {
		opts := (*OPOptions)(nil).withDefaults()
		x := append([]float64(nil), x0...)
		it, ok := newton(n, x, opts, opts.Gmin, 1, ws.real(len(x)))
		if ok {
			ws.countOP(it)
			return &OPResult{X: x, Iterations: it, net: n}, nil
		}
		ws.stats.Iterations += it
	}
	ws.stats.WarmFallbacks++
	return OP(n, &OPOptions{WS: ws})
}

// nominalOP returns the memoised nominal operating point of the design
// key names, solving it from the zero start on a miss. It is empty when
// that solve did not converge.
func (w *Workspace) nominalOP(key any, nominal func() *circuit.Netlist) []float64 {
	if w.nomKey == nil || w.nomKey != key {
		w.nomKey, w.nomX = key, w.nomX[:0]
		if r, err := OP(nominal(), &OPOptions{WS: w}); err == nil {
			w.nomX = append(w.nomX, r.X...)
		}
	}
	return w.nomX
}

// DCSweepPoint is one solution of a DC sweep.
type DCSweepPoint struct {
	Value float64
	OP    *OPResult
}

// DCSweep solves the operating point for each value of the named
// VSource's DC level, warm-starting each solve from the previous one.
// The netlist is modified during the sweep and restored before return.
func DCSweep(n *circuit.Netlist, source string, values []float64, o *OPOptions) ([]DCSweepPoint, error) {
	dev := n.Device(source)
	vs, ok := dev.(*circuit.VSource)
	if !ok {
		return nil, fmt.Errorf("analysis: %q is not a voltage source", source)
	}
	orig := vs.DC
	defer func() { vs.DC = orig }()
	var out []DCSweepPoint
	var prev []float64
	for _, v := range values {
		vs.DC = v
		opts := OPOptions{}
		if o != nil {
			opts = *o
		}
		opts.X0 = prev
		r, err := OP(n, &opts)
		if err != nil {
			return out, fmt.Errorf("analysis: sweep %s=%g: %w", source, v, err)
		}
		prev = r.X
		out = append(out, DCSweepPoint{Value: v, OP: r})
	}
	return out, nil
}
