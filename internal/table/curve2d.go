package table

import (
	"fmt"
	"math"
	"sort"

	"analogyield/internal/spline"
)

// coarseScan is the resolution of Project's coarse scan: the front is
// sampled at u = i/coarseScan for i = 0..coarseScan, once, when it is
// built.
const coarseScan = 256

// maxDistance is the largest allowed normalised distance between a
// query and its projection in "E" mode, as a fraction of the curve's
// bounding-box diagonal.
const maxDistance = 0.25

// CurveModel2D is a two-input table model whose sample points lie on a
// one-dimensional manifold — exactly the situation of the paper's
// lp1..lp4 = $table_model(gain_prop, pm_prop, "lpN_data.tbl", "3E,3E")
// lookups, where (gain, pm) pairs come from a Pareto front.
//
// Gridded bilinear/bicubic interpolation is undefined for such data, so
// the model parameterises the samples by normalised arc length u, fits
// splines X1(u), X2(u), Y(u), projects a query point onto the curve
// (nearest point in normalised input space) and returns Y at the
// projected parameter. Queries far from the curve are out-of-range in
// "E" mode, matching the paper's refusal to extrapolate.
//
// The front (the ordering of the samples, u, X1(u), X2(u) and the
// projection's coarse-scan grid) does not depend on the output, so
// models of several outputs over the same samples share one front
// (WithOutput).
type CurveModel2D struct {
	f        *front
	ys       []float64 // output samples ordered along the curve
	fy       *spline.Curve
	ylo, yhi float64 // sampled output range
}

// front is the arc-length parameterisation of a set of (x1, x2)
// samples, shared by every output fitted over them.
type front struct {
	ctrl1, ctrl2 Control
	deg          spline.Degree
	n            int   // number of input samples
	keep         []int // input index of each sample kept along the curve
	x1s, x2s     []float64
	u            []float64 // normalised arc-length parameter per sample
	fx1, fx2     *spline.Curve
	span1, span2 float64 // input ranges used for normalisation
	// gx1, gx2 are X1 and X2 at u = i/coarseScan, and gseg the segment
	// of the u knots each grid point falls in (X1, X2 and every output
	// share those knots).
	gx1, gx2 []float64
	gseg     []int32
}

// NewCurveModel2D builds a curve table model from scattered samples.
// Samples are sorted by x1 to order them along the front; duplicate x1
// values keep the first occurrence.
func NewCurveModel2D(x1s, x2s, ys []float64, ctrl1, ctrl2 Control) (*CurveModel2D, error) {
	if len(x1s) != len(x2s) || len(x1s) != len(ys) {
		return nil, fmt.Errorf("table: sample length mismatch: %d/%d/%d", len(x1s), len(x2s), len(ys))
	}
	f, err := newFront(x1s, x2s, ctrl1, ctrl2)
	if err != nil {
		return nil, err
	}
	return f.output(ys)
}

// WithOutput fits another output over the samples this model was built
// from: ys[i] pairs with the i-th (x1, x2) sample given to
// NewCurveModel2D. The front is shared, not refitted, so the result is
// the model NewCurveModel2D would build from (x1s, x2s, ys).
func (m *CurveModel2D) WithOutput(ys []float64) (*CurveModel2D, error) {
	if len(ys) != m.f.n {
		return nil, fmt.Errorf("table: sample length mismatch: %d/%d/%d", m.f.n, m.f.n, len(ys))
	}
	return m.f.output(ys)
}

func newFront(x1s, x2s []float64, ctrl1, ctrl2 Control) (*front, error) {
	if len(x1s) < 3 {
		return nil, fmt.Errorf("table: curve model needs at least 3 samples, got %d", len(x1s))
	}
	keep := make([]int, len(x1s))
	for i := range keep {
		keep[i] = i
	}
	sort.Slice(keep, func(i, j int) bool { return x1s[keep[i]] < x1s[keep[j]] })
	dedup := keep[:0]
	for i, k := range keep {
		if i > 0 && x1s[k] == x1s[dedup[len(dedup)-1]] {
			continue
		}
		dedup = append(dedup, k)
	}
	if len(dedup) < 3 {
		return nil, fmt.Errorf("table: fewer than 3 distinct samples after dedup")
	}

	f := &front{ctrl1: ctrl1, ctrl2: ctrl2, n: len(x1s), keep: dedup,
		x1s: make([]float64, len(dedup)), x2s: make([]float64, len(dedup))}
	for i, k := range dedup {
		f.x1s[i], f.x2s[i] = x1s[k], x2s[k]
	}
	min2, max2 := minMax(f.x2s)
	f.span1 = f.x1s[len(f.x1s)-1] - f.x1s[0]
	f.span2 = max2 - min2
	if f.span1 == 0 {
		f.span1 = 1
	}
	if f.span2 == 0 {
		f.span2 = 1
	}
	// Cumulative arc length in normalised coordinates.
	f.u = make([]float64, len(dedup))
	for i := 1; i < len(dedup); i++ {
		d1 := (f.x1s[i] - f.x1s[i-1]) / f.span1
		d2 := (f.x2s[i] - f.x2s[i-1]) / f.span2
		f.u[i] = f.u[i-1] + math.Hypot(d1, d2)
	}
	total := f.u[len(f.u)-1]
	if total == 0 {
		return nil, fmt.Errorf("table: degenerate curve (zero arc length)")
	}
	for i := range f.u {
		f.u[i] /= total
	}
	f.deg = ctrl1.Degree
	if f.deg == 0 {
		f.deg = spline.DegreeCubic
	}
	var err error
	if f.fx1, err = spline.New(f.deg, f.u, f.x1s); err != nil {
		return nil, fmt.Errorf("table: fitting X1(u): %w", err)
	}
	if f.fx2, err = spline.New(f.deg, f.u, f.x2s); err != nil {
		return nil, fmt.Errorf("table: fitting X2(u): %w", err)
	}
	f.gx1 = make([]float64, coarseScan+1)
	f.gx2 = make([]float64, coarseScan+1)
	f.gseg = make([]int32, coarseScan+1)
	h := -1
	for i := range f.gseg {
		u := float64(i) / coarseScan
		f.gx1[i], h = f.fx1.EvalHint(u, h)
		f.gx2[i], _ = f.fx2.EvalHint(u, h)
		f.gseg[i] = int32(h)
	}
	return f, nil
}

// output fits Y(u) to the output samples ys, given in input order.
func (f *front) output(ys []float64) (*CurveModel2D, error) {
	m := &CurveModel2D{f: f, ys: make([]float64, len(f.keep))}
	for i, k := range f.keep {
		m.ys[i] = ys[k]
	}
	var err error
	if m.fy, err = spline.New(f.deg, f.u, m.ys); err != nil {
		return nil, fmt.Errorf("table: fitting Y(u): %w", err)
	}
	m.ylo, m.yhi = minMax(m.ys)
	return m, nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Project returns the curve parameter u in [0,1] closest to the query
// point, along with the normalised distance to the curve: a scan of the
// precomputed grid, then a golden-section refinement around the best
// grid point whose segment lookups start from that point's segment.
func (m *CurveModel2D) Project(x1, x2 float64) (u, dist float64) {
	f := m.f
	const n = coarseScan
	bestU, bestD := 0.0, math.Inf(1)
	bestI := 0
	for i := 0; i <= n; i++ {
		d1 := (f.gx1[i] - x1) / f.span1
		d2 := (f.gx2[i] - x2) / f.span2
		if d := d1*d1 + d2*d2; d < bestD {
			bestD, bestU, bestI = d, float64(i)/n, i
		}
	}
	h := int(f.gseg[bestI])
	dist2 := func(u float64) float64 {
		var v1, v2 float64
		v1, h = f.fx1.EvalHint(u, h)
		v2, _ = f.fx2.EvalHint(u, h)
		d1 := (v1 - x1) / f.span1
		d2 := (v2 - x2) / f.span2
		return d1*d1 + d2*d2
	}
	lo := math.Max(0, bestU-1.5/n)
	hi := math.Min(1, bestU+1.5/n)
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := dist2(c), dist2(d)
	for i := 0; i < 60; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = dist2(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = dist2(d)
		}
	}
	u = 0.5 * (a + b)
	if bd := dist2(u); bd < bestD {
		bestD = bd
		bestU = u
	}
	return bestU, math.Sqrt(bestD)
}

// Eval evaluates the table model at the query point (x1, x2). In "E"
// mode (on either control) a query whose normalised distance from the
// curve exceeds maxDistance is out of range.
func (m *CurveModel2D) Eval(x1, x2 float64) (float64, error) {
	u, dist := m.Project(x1, x2)
	errMode := m.f.ctrl1.Extrap == ExtrapError || m.f.ctrl2.Extrap == ExtrapError
	if errMode && dist > maxDistance {
		return 0, fmt.Errorf("%w: point (%g, %g) is %.3g (normalised) from the sampled front",
			ErrOutOfRange, x1, x2, dist)
	}
	return m.fy.Eval(u), nil
}

// EvalAtHint returns the output at a given curve parameter (clamped to
// [0, 1]), for callers that have already projected (e.g. parameter
// lookups at one spec point). *hint carries the curve segment between
// nearby calls (start it at -1); outputs sharing a front share their
// segments, so one hint serves all of them. The hint never changes a
// result.
func (m *CurveModel2D) EvalAtHint(u float64, hint *int) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	y, seg := m.fy.EvalHint(u, *hint)
	*hint = seg
	return y
}

// OutputRange returns the smallest and largest sampled output.
func (m *CurveModel2D) OutputRange() (lo, hi float64) { return m.ylo, m.yhi }

// Len returns the number of distinct samples along the curve.
func (m *CurveModel2D) Len() int { return len(m.ys) }

// Samples returns copies of the ordered sample vectors.
func (m *CurveModel2D) Samples() (x1s, x2s, ys []float64) {
	return append([]float64(nil), m.f.x1s...),
		append([]float64(nil), m.f.x2s...),
		append([]float64(nil), m.ys...)
}
