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
	interp spline.Interpolator
	comp   *spline.Compiled // nil when the degree has no compiled form
	lo, hi float64
	xs, ys []float64
}

// NewModel1D builds a one-dimensional table model from samples. The
// samples are copied; duplicate x values are rejected.
func NewModel1D(xs, ys []float64, ctrl Control) (*Model1D, error) {
	if ctrl.Ignore {
		return nil, fmt.Errorf("table: cannot ignore the only dimension of a 1-D model")
	}
	itp, err := spline.New(ctrl.Degree, xs, ys)
	if err != nil {
		return nil, err
	}
	lo, hi := itp.Domain()
	m := &Model1D{ctrl: ctrl, interp: itp, lo: lo, hi: hi}
	// Compile eagerly: the model is immutable, and the compiled form is
	// what the server's query engine evaluates (bit-identical to interp by
	// spline.Compile's contract; nil for quadratic degree).
	m.comp, _ = spline.Compile(itp)
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
	if x < m.lo || x > m.hi {
		switch m.ctrl.Extrap {
		case ExtrapError:
			return 0, fmt.Errorf("%w: x = %g outside [%g, %g]", ErrOutOfRange, x, m.lo, m.hi)
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
				slope := (m.interp.Eval(m.lo+h) - m.interp.Eval(m.lo)) / h
				return m.interp.Eval(m.lo) + slope*(x-m.lo), nil
			}
			slope := (m.interp.Eval(m.hi) - m.interp.Eval(m.hi-h)) / h
			return m.interp.Eval(m.hi) + slope*(x-m.hi), nil
		}
	}
	return m.interp.Eval(x), nil
}

// Domain returns the sampled x range.
func (m *Model1D) Domain() (lo, hi float64) { return m.lo, m.hi }

// Compiled returns the model's compiled spline (bit-identical to Eval
// inside the domain), or nil when the degree has no compiled form
// (quadratic).
func (m *Model1D) Compiled() *spline.Compiled { return m.comp }

// Control returns the model's control settings.
func (m *Model1D) Control() Control { return m.ctrl }

// Len returns the number of sample points.
func (m *Model1D) Len() int { return len(m.xs) }

// Samples returns copies of the sample vectors in insertion order.
func (m *Model1D) Samples() (xs, ys []float64) {
	return append([]float64(nil), m.xs...), append([]float64(nil), m.ys...)
}

// Invert solves f(x) = y for x within the sampled domain. It is used by
// the yield-targeted design step to map a required performance back to
// the front. Only cubic-degree models support inversion.
func (m *Model1D) Invert(y float64) (float64, error) {
	c, ok := m.interp.(*spline.Cubic)
	if !ok {
		// Fall back: dense scan + local bisection on the interpolant.
		lo, hi := m.lo, m.hi
		const n = 2048
		prevX := lo
		prevY := m.interp.Eval(lo)
		for i := 1; i <= n; i++ {
			x := lo + (hi-lo)*float64(i)/n
			yy := m.interp.Eval(x)
			if (prevY <= y && y <= yy) || (yy <= y && y <= prevY) {
				a, b := prevX, x
				for it := 0; it < 60; it++ {
					mid := 0.5 * (a + b)
					if fm := m.interp.Eval(mid); (fm < y) == (prevY < y) {
						a = mid
					} else {
						b = mid
					}
				}
				return 0.5 * (a + b), nil
			}
			prevX, prevY = x, yy
		}
		return 0, fmt.Errorf("%w: no x with f(x) = %g", ErrOutOfRange, y)
	}
	return c.Invert(y)
}
