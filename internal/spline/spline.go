// Package spline implements the interpolation schemes Verilog-A's
// $table_model() supports: piecewise linear (degree 1), piecewise
// quadratic (degree 2) and natural cubic splines (degree 3), plus the
// shape-preserving monotone cubic (degree 4, PCHIP) the in-process
// tables default to.
//
// The paper uses cubic splines ("3" in the control string) to maximise
// accuracy; the lower degrees exist both for completeness and for the
// interpolation-degree ablation benchmark.
package spline

import (
	"fmt"
	"math"
	"sort"
)

// Degree identifies an interpolation degree as used by Verilog-A
// $table_model control strings.
type Degree int

// Interpolation degrees supported by $table_model.
const (
	DegreeLinear    Degree = 1
	DegreeQuadratic Degree = 2
	DegreeCubic     Degree = 3
)

// DegreeMonotoneCubic selects PCHIP interpolation in this repository's
// table models. It has no Verilog-A control-string equivalent (Verilog-A
// only offers degrees 1-3); generated Verilog-A always uses the standard
// cubic spline, while the in-process tables default to PCHIP for
// robustness on unevenly sampled fronts.
const DegreeMonotoneCubic Degree = 4

// Curve is an immutable 1-D interpolant of any supported degree, fitted
// to (x, y) samples and stored as struct-of-arrays per-segment data:
//
//   - linear: knot values;
//   - quadratic: knot values, evaluated as the Lagrange parabola through
//     the three knots nearest the containing interval;
//   - natural cubic: Horner coefficients ((a·dx + b)·dx + c)·dx + d with
//     dx = x − xs[i], the paper's eq. (3);
//   - PCHIP: knot values and nodal derivatives in the Hermite basis.
//
// Evaluation allocates nothing. EvalHint replaces the binary search for
// the containing segment with a constant-time check of the caller's
// previous segment and its neighbours, which almost always hits when
// consecutive queries are close together (a batch of nearby queries, or
// a projection refinement loop). The hint never changes a result: the
// segment is always the one the binary search would pick.
type Curve struct {
	deg    Degree
	xs, ys []float64
	// ms holds PCHIP's nodal derivatives.
	ms []float64
	// a, b, c, d hold the natural cubic's per-segment coefficients.
	a, b, c, d []float64
}

// New fits an interpolant of the requested degree to the samples. The
// samples are copied and sorted by x; duplicate or NaN values are an
// error. Linear and PCHIP need two points, quadratic and cubic three.
func New(deg Degree, xs, ys []float64) (*Curve, error) {
	minPoints := 2
	switch deg {
	case DegreeLinear, DegreeMonotoneCubic:
	case DegreeQuadratic, DegreeCubic:
		minPoints = 3
	default:
		return nil, fmt.Errorf("spline: unsupported degree %d", deg)
	}
	sx, sy, err := checkKnots(xs, ys, minPoints)
	if err != nil {
		return nil, err
	}
	c := &Curve{deg: deg, xs: sx, ys: sy}
	switch deg {
	case DegreeCubic:
		c.fitNatural()
	case DegreeMonotoneCubic:
		c.ms = pchipSlopes(sx, sy)
	}
	return c, nil
}

// checkKnots validates and sorts a copy of the sample set. Knots that
// arrive in ascending order, as every table fit passes them, are copied
// without a sort.
func checkKnots(xs, ys []float64, minPoints int) ([]float64, []float64, error) {
	if len(xs) != len(ys) {
		return nil, nil, fmt.Errorf("spline: %d x values but %d y values", len(xs), len(ys))
	}
	if len(xs) < minPoints {
		return nil, nil, fmt.Errorf("spline: need at least %d points, got %d", minPoints, len(xs))
	}
	ascending := true
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			return nil, nil, fmt.Errorf("spline: NaN sample at index %d", i)
		}
		if i > 0 && xs[i] < xs[i-1] {
			ascending = false
		}
	}
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	if !ascending {
		sort.Sort(byKnot{sx, sy})
	}
	for i := 1; i < len(sx); i++ {
		if sx[i] == sx[i-1] {
			return nil, nil, fmt.Errorf("spline: duplicate knot x = %g", sx[i])
		}
	}
	return sx, sy, nil
}

// byKnot sorts samples by x, carrying each y with its x.
type byKnot struct{ xs, ys []float64 }

func (k byKnot) Len() int           { return len(k.xs) }
func (k byKnot) Less(i, j int) bool { return k.xs[i] < k.xs[j] }
func (k byKnot) Swap(i, j int) {
	k.xs[i], k.xs[j] = k.xs[j], k.xs[i]
	k.ys[i], k.ys[j] = k.ys[j], k.ys[i]
}

// fitNatural solves for the natural cubic spline's second derivatives
// (zero at both ends) and stores the per-segment coefficients.
func (s *Curve) fitNatural() {
	sx, sy := s.xs, s.ys
	n := len(sx)
	h := make([]float64, n-1)
	for i := range h {
		h[i] = sx[i+1] - sx[i]
	}
	// Thomas algorithm on the tridiagonal system for m[0..n-1].
	sub := make([]float64, n)
	diag := make([]float64, n)
	sup := make([]float64, n)
	rhs := make([]float64, n)
	diag[0], diag[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		sub[i] = h[i-1]
		diag[i] = 2 * (h[i-1] + h[i])
		sup[i] = h[i]
		rhs[i] = 6 * ((sy[i+1]-sy[i])/h[i] - (sy[i]-sy[i-1])/h[i-1])
	}
	for i := 1; i < n; i++ {
		w := sub[i] / diag[i-1]
		diag[i] -= w * sup[i-1]
		rhs[i] -= w * rhs[i-1]
	}
	m := make([]float64, n)
	m[n-1] = rhs[n-1] / diag[n-1]
	for i := n - 2; i >= 0; i-- {
		m[i] = (rhs[i] - sup[i]*m[i+1]) / diag[i]
	}
	s.a, s.b = make([]float64, n-1), make([]float64, n-1)
	s.c, s.d = make([]float64, n-1), make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		s.a[i] = (m[i+1] - m[i]) / (6 * h[i])
		s.b[i] = m[i] / 2
		s.c[i] = (sy[i+1]-sy[i])/h[i] - h[i]*(2*m[i]+m[i+1])/6
		s.d[i] = sy[i]
	}
}

// Domain returns the knot range.
func (s *Curve) Domain() (lo, hi float64) { return s.xs[0], s.xs[len(s.xs)-1] }

// segment locates the knot interval containing x: the largest i with
// xs[i] < x, clamped to [0, len(xs)-2].
func segment(xs []float64, x float64) int {
	i := sort.SearchFloat64s(xs, x) - 1
	if i < 0 {
		i = 0
	}
	if i > len(xs)-2 {
		i = len(xs) - 2
	}
	return i
}

// segmentHint is segment that tries the hinted segment and its
// neighbours before falling back to binary search. Any out-of-range
// hint (e.g. -1) selects the binary search.
func (s *Curve) segmentHint(x float64, hint int) int {
	xs := s.xs
	n := len(xs)
	if uint(hint) <= uint(n-2) {
		if xs[hint] < x {
			if hint == n-2 || xs[hint+1] >= x {
				return hint
			}
			// Sequential scans usually move one segment forward.
			if hint+1 == n-2 || xs[hint+2] >= x {
				return hint + 1
			}
		} else if hint == 0 {
			return 0
		} else if xs[hint-1] < x {
			return hint - 1
		}
	}
	return segment(xs, x)
}

// evalSegment evaluates segment i at x; a negative i locates the
// segment by binary search first.
func (s *Curve) evalSegment(x float64, i int) float64 {
	if i < 0 {
		i = segment(s.xs, x)
	}
	switch s.deg {
	case DegreeCubic:
		dx := x - s.xs[i]
		return ((s.a[i]*dx+s.b[i])*dx+s.c[i])*dx + s.d[i]
	case DegreeMonotoneCubic:
		h := s.xs[i+1] - s.xs[i]
		t := (x - s.xs[i]) / h
		h00 := (1 + 2*t) * (1 - t) * (1 - t)
		h10 := t * (1 - t) * (1 - t)
		h01 := t * t * (3 - 2*t)
		h11 := t * t * (t - 1)
		return h00*s.ys[i] + h10*h*s.ms[i] + h01*s.ys[i+1] + h11*h*s.ms[i+1]
	case DegreeQuadratic:
		return s.evalQuadratic(x, i)
	default: // DegreeLinear
		t := (x - s.xs[i]) / (s.xs[i+1] - s.xs[i])
		return s.ys[i] + t*(s.ys[i+1]-s.ys[i])
	}
}

// evalQuadratic evaluates the Lagrange parabola through the three knots
// nearest segment i: knots i-1, i, i+1 where possible, else i, i+1, i+2.
func (s *Curve) evalQuadratic(x float64, i int) float64 {
	j := i
	if j > 0 {
		j--
	}
	if j > len(s.xs)-3 {
		j = len(s.xs) - 3
	}
	x0, x1, x2 := s.xs[j], s.xs[j+1], s.xs[j+2]
	y0, y1, y2 := s.ys[j], s.ys[j+1], s.ys[j+2]
	l0 := (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
	l1 := (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
	l2 := (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1))
	return y0*l0 + y1*l1 + y2*l2
}

// Eval returns the interpolated value at x. Outside the knot range the
// end segment is continued (table wrappers apply their own
// extrapolation policy first).
func (s *Curve) Eval(x float64) float64 {
	return s.evalSegment(x, -1)
}

// EvalHint is Eval with segment-hint reuse: it returns the value and the
// segment that produced it, which the caller passes back on its next
// (nearby) query to skip the binary search.
func (s *Curve) EvalHint(x float64, hint int) (y float64, seg int) {
	i := s.segmentHint(x, hint)
	return s.evalSegment(x, i), i
}
