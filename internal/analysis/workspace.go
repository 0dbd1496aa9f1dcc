package analysis

import (
	"analogyield/internal/circuit"
	"analogyield/internal/num"
)

// Workspace holds the reusable solver state of one evaluation thread:
// the real Newton system shared by OP, DC sweeps and transient steps,
// the AC sweep's recorded linearisation, and the complex system used by
// AC and noise solves. Reusing one Workspace across the thousands of
// evaluations of a GA or Monte Carlo run keeps the solver hot path
// allocation-free.
//
// A nil *Workspace is always valid — every analysis then allocates
// internally, once per call — so existing callers need not change.
// A Workspace serves one goroutine at a time: never share one between
// concurrently running analyses.
//
// A Workspace also memoises the nominal operating point of the last
// design whose samples SampleOP solved, and counts the operating-point
// work solved through it (see Stats).
type Workspace struct {
	re    *num.Workspace
	cx    *num.CWorkspace
	acRef *num.CLU      // AC sweep reference factorisation (see ac.go)
	ac    circuit.ACCtx // AC sweep linearisation (see linearise)

	nomKey any       // design whose nominal OP nomX holds (nil: none)
	nomX   []float64 // its nominal OP; empty when that did not converge
	stats  OPStats
}

// OPStats counts the operating-point work solved through one Workspace.
// The counters are plain ints owned by the workspace's goroutine: read
// them once that goroutine has finished with the workspace.
type OPStats struct {
	Solves        int // operating points solved: OP calls and warm-started samples
	Iterations    int // Newton iterations, failed attempts included
	WarmFallbacks int // sampled solves that fell back to the zero start
}

// Add returns the element-wise sum of s and o.
func (s OPStats) Add(o OPStats) OPStats {
	return OPStats{
		Solves:        s.Solves + o.Solves,
		Iterations:    s.Iterations + o.Iterations,
		WarmFallbacks: s.WarmFallbacks + o.WarmFallbacks,
	}
}

// Stats returns the operating-point work solved through w so far (zero
// for a nil workspace).
func (w *Workspace) Stats() OPStats {
	if w == nil {
		return OPStats{}
	}
	return w.stats
}

// countOP records one operating-point solve of iters Newton iterations.
func (w *Workspace) countOP(iters int) {
	if w != nil {
		w.stats.Solves++
		w.stats.Iterations += iters
	}
}

// NewWorkspace returns an empty workspace; buffers are sized lazily by
// the first analysis that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// real returns the real solver workspace sized for order-n systems. On a
// nil receiver it allocates fresh buffers (the allocate-per-call path).
func (w *Workspace) real(n int) *num.Workspace {
	if w == nil {
		return num.NewWorkspace(n)
	}
	if w.re == nil {
		w.re = num.NewWorkspace(n)
	} else {
		w.re.Resize(n)
	}
	return w.re
}

// acReference returns the buffer holding the AC sweep's reference
// factorisation (its order is set by FactorInto). On a nil receiver it
// allocates fresh buffers.
func (w *Workspace) acReference(n int) *num.CLU {
	if w == nil {
		return num.NewCLU(n)
	}
	if w.acRef == nil {
		w.acRef = num.NewCLU(n)
	}
	return w.acRef
}

// cplx returns the complex solver workspace sized for order-n systems.
// On a nil receiver it allocates fresh buffers.
func (w *Workspace) cplx(n int) *num.CWorkspace {
	if w == nil {
		return num.NewCWorkspace(n)
	}
	if w.cx == nil {
		w.cx = num.NewCWorkspace(n)
	} else {
		w.cx.Resize(n)
	}
	return w.cx
}

// acRecording returns the buffer recording an AC sweep's linearisation.
// On a nil receiver it allocates a fresh one.
func (w *Workspace) acRecording() *circuit.ACCtx {
	if w == nil {
		return &circuit.ACCtx{}
	}
	return &w.ac
}
