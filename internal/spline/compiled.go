package spline

import (
	"fmt"
)

// Compiled is an immutable, struct-of-arrays compilation of an
// interpolator, built for read-mostly hot paths (the server's yield
// queries evaluate the same handful of curves millions of times).
// Three things make it faster than the source interpolator without
// changing a single output bit:
//
//   - no interface dispatch: the coefficient arrays are evaluated
//     directly, natural cubics in the same Horner form Cubic.Eval uses;
//   - segment hints: Eval's binary search is replaced by a constant-time
//     check of the caller's previous segment (and its neighbours), which
//     almost always hits when consecutive queries are close together —
//     the access pattern of both a batch of nearby queries and the
//     projection refinement loop;
//   - zero allocations: evaluation touches only the coefficient arrays.
//
// Bit-identity with the source interpolator is part of the contract
// (asserted by TestCompiledBitIdentical): every arithmetic expression is
// evaluated in exactly the order the interpreted Eval uses, so callers
// may switch between the two freely, per point, without observable
// effect. PCHIP segments therefore keep their Hermite-basis arithmetic
// rather than being re-expanded into monomial coefficients, which would
// round differently.
type Compiled struct {
	kind compiledKind
	xs   []float64

	// Natural cubic: per-segment Horner coefficients of
	// ((a·dx + b)·dx + c)·dx + d with dx = x − xs[i].
	a, b, c, d []float64

	// PCHIP (values + nodal derivatives) and Linear (values only).
	ys, ms []float64
}

type compiledKind int

const (
	compiledLinear compiledKind = iota
	compiledCubic
	compiledPCHIP
)

// Compile builds the struct-of-arrays form of an interpolator. Linear,
// Cubic and PCHIP interpolants are supported; other kinds (Quadratic's
// moving three-point window does not decompose into per-segment
// coefficients) return an error: callers keep evaluating the source
// interpolator, or refuse the curve.
func Compile(itp Interpolator) (*Compiled, error) {
	switch s := itp.(type) {
	case *Linear:
		return &Compiled{
			kind: compiledLinear,
			xs:   append([]float64(nil), s.xs...),
			ys:   append([]float64(nil), s.ys...),
		}, nil
	case *Cubic:
		return &Compiled{
			kind: compiledCubic,
			xs:   append([]float64(nil), s.xs...),
			a:    append([]float64(nil), s.a...),
			b:    append([]float64(nil), s.b...),
			c:    append([]float64(nil), s.c...),
			d:    append([]float64(nil), s.d...),
			ys:   append([]float64(nil), s.ys...),
		}, nil
	case *PCHIP:
		return &Compiled{
			kind: compiledPCHIP,
			xs:   append([]float64(nil), s.xs...),
			ys:   append([]float64(nil), s.ys...),
			ms:   append([]float64(nil), s.ms...),
		}, nil
	default:
		return nil, fmt.Errorf("spline: cannot compile %T", itp)
	}
}

// Domain returns the knot range.
func (s *Compiled) Domain() (lo, hi float64) { return s.xs[0], s.xs[len(s.xs)-1] }

// Segment locates the knot interval containing x exactly as the
// interpreted evaluators do (the largest i with xs[i] < x, clamped to
// the first and last knot interval), trying the hinted segment and its neighbours
// before falling back to binary search. Any out-of-range hint (e.g. -1)
// selects the binary search.
func (s *Compiled) Segment(x float64, hint int) int {
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

// evalSegment evaluates segment i at x with the source interpolator's
// exact arithmetic.
func (s *Compiled) evalSegment(x float64, i int) float64 {
	switch s.kind {
	case compiledCubic:
		dx := x - s.xs[i]
		return ((s.a[i]*dx+s.b[i])*dx+s.c[i])*dx + s.d[i]
	case compiledPCHIP:
		h := s.xs[i+1] - s.xs[i]
		t := (x - s.xs[i]) / h
		h00 := (1 + 2*t) * (1 - t) * (1 - t)
		h10 := t * (1 - t) * (1 - t)
		h01 := t * t * (3 - 2*t)
		h11 := t * t * (t - 1)
		return h00*s.ys[i] + h10*h*s.ms[i] + h01*s.ys[i+1] + h11*h*s.ms[i+1]
	default: // compiledLinear
		t := (x - s.xs[i]) / (s.xs[i+1] - s.xs[i])
		return s.ys[i] + t*(s.ys[i+1]-s.ys[i])
	}
}

// Eval returns the interpolated value at x, bit-identical to the source
// interpolator's Eval.
func (s *Compiled) Eval(x float64) float64 {
	return s.evalSegment(x, s.Segment(x, -1))
}

// EvalHint is Eval with segment-hint reuse: it returns the value and the
// segment that produced it, which the caller passes back on its next
// (nearby) query to skip the binary search.
func (s *Compiled) EvalHint(x float64, hint int) (y float64, seg int) {
	i := s.Segment(x, hint)
	return s.evalSegment(x, i), i
}
