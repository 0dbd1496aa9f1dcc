package table

import (
	"fmt"

	"analogyield/internal/spline"
)

// Model1D is a one-input table model: y = f(x) with interpolation and
// extrapolation behaviour specified by a Control. It mirrors
// $table_model(x, "file.tbl", "3E").
type Model1D struct {
	ctrl   Control
	curve  *spline.Curve
	lo, hi float64
	xs, ys []float64
}

// NewModel1D builds a one-dimensional table model from samples. The
// samples are copied; duplicate x values are rejected.
func NewModel1D(xs, ys []float64, ctrl Control) (*Model1D, error) {
	if ctrl.Ignore {
		return nil, fmt.Errorf("table: cannot ignore the only dimension of a 1-D model")
	}
	c, err := spline.New(ctrl.Degree, xs, ys)
	if err != nil {
		return nil, err
	}
	lo, hi := c.Domain()
	m := &Model1D{ctrl: ctrl, curve: c, lo: lo, hi: hi}
	m.xs = append(m.xs, xs...)
	m.ys = append(m.ys, ys...)
	return m, nil
}

// MustModel1D is NewModel1D that panics on error, for statically-known
// data such as tests and examples.
func MustModel1D(xs, ys []float64, ctrl Control) *Model1D {
	m, err := NewModel1D(xs, ys, ctrl)
	if err != nil {
		panic(err)
	}
	return m
}

// Eval evaluates the table model at x, applying the extrapolation mode
// outside the sampled range.
func (m *Model1D) Eval(x float64) (float64, error) {
	hint := -1
	y, ok := m.EvalHint(x, &hint)
	if !ok {
		return 0, fmt.Errorf("%w: x = %g outside [%g, %g]", ErrOutOfRange, x, m.lo, m.hi)
	}
	return y, nil
}

// EvalHint is Eval for hot loops: *hint carries the curve segment from
// one nearby query to the next (start it at -1), and a query outside
// the domain under Error extrapolation reports false instead of
// building an error. It never allocates, and the hint never changes a
// result.
func (m *Model1D) EvalHint(x float64, hint *int) (float64, bool) {
	if x < m.lo || x > m.hi {
		switch m.ctrl.Extrap {
		case ExtrapError:
			return 0, false
		case ExtrapClamp:
			if x < m.lo {
				x = m.lo
			} else {
				x = m.hi
			}
		case ExtrapLinear:
			// Continue with the boundary slope.
			h := (m.hi - m.lo) * 1e-6
			if h == 0 {
				h = 1e-12
			}
			if x < m.lo {
				slope := (m.curve.Eval(m.lo+h) - m.curve.Eval(m.lo)) / h
				return m.curve.Eval(m.lo) + slope*(x-m.lo), true
			}
			slope := (m.curve.Eval(m.hi) - m.curve.Eval(m.hi-h)) / h
			return m.curve.Eval(m.hi) + slope*(x-m.hi), true
		}
	}
	y, seg := m.curve.EvalHint(x, *hint)
	*hint = seg
	return y, true
}

// Domain returns the sampled x range.
func (m *Model1D) Domain() (lo, hi float64) { return m.lo, m.hi }

// Control returns the model's control settings.
func (m *Model1D) Control() Control { return m.ctrl }

// Len returns the number of sample points.
func (m *Model1D) Len() int { return len(m.xs) }

// Samples returns copies of the sample vectors in insertion order.
func (m *Model1D) Samples() (xs, ys []float64) {
	return append([]float64(nil), m.xs...), append([]float64(nil), m.ys...)
}
