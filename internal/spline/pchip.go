package spline

import (
	"math"
)

// pchipSlopes computes the nodal derivatives of the shape-preserving
// piecewise-cubic Hermite interpolant (Fritsch-Carlson) through sorted,
// distinct knots. Unlike the natural cubic spline, PCHIP cannot
// overshoot between knots, which makes it the robust choice for table
// models built on unevenly distributed Pareto fronts: a natural spline
// bridging a sparse region of the front can oscillate far outside the
// data range, while PCHIP stays inside the hull of neighbouring samples.
func pchipSlopes(sx, sy []float64) []float64 {
	n := len(sx)
	m := make([]float64, n)
	if n == 2 {
		d := (sy[1] - sy[0]) / (sx[1] - sx[0])
		m[0], m[1] = d, d
		return m
	}
	h := make([]float64, n-1)
	d := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		h[i] = sx[i+1] - sx[i]
		d[i] = (sy[i+1] - sy[i]) / h[i]
	}
	// Interior slopes: weighted harmonic mean when the secants agree in
	// sign, zero otherwise (local extremum).
	for i := 1; i < n-1; i++ {
		if d[i-1]*d[i] <= 0 {
			m[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		m[i] = (w1 + w2) / (w1/d[i-1] + w2/d[i])
	}
	// One-sided endpoint slopes, limited to preserve shape.
	m[0] = endSlope(h[0], h[1], d[0], d[1])
	m[n-1] = endSlope(h[n-2], h[n-3], d[n-2], d[n-3])
	return m
}

// endSlope computes the Fritsch-Carlson non-centred boundary derivative.
func endSlope(h0, h1, d0, d1 float64) float64 {
	s := ((2*h0+h1)*d0 - h0*d1) / (h0 + h1)
	switch {
	case s*d0 <= 0:
		return 0
	case d0*d1 <= 0 && math.Abs(s) > 3*math.Abs(d0):
		return 3 * d0
	}
	return s
}
