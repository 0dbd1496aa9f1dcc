package core_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"analogyield/internal/core"
	"analogyield/internal/spline"
	"analogyield/internal/table"
	"analogyield/internal/yield"
)

// refModel is the test oracle for Model.DesignInto: the Table 3 query
// recomputed from a BuildModel model's samples alone. Every table is
// refitted with spline.New from its Samples(), every curve evaluation
// locates its segment by a fresh binary search (Curve.Eval), the
// projection's coarse scan evaluates X1(u) and X2(u) at all 257 grid
// points, and each parameter's clamp range is rescanned from its
// samples on every query.
type refModel struct {
	delta        [2]*spline.Curve
	front        *spline.Curve
	x1, x2       *spline.Curve // the front's arc-length parameterisation
	span1, span2 float64
	params       []*spline.Curve
	paramYs      [][]float64
}

func newRefModel(t testing.TB, m *core.Model) *refModel {
	t.Helper()
	deg := m.Delta[0].Control().Degree // BuildModel fits every table alike
	fit := func(xs, ys []float64) *spline.Curve {
		c, err := spline.New(deg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	r := &refModel{}
	for k := range r.delta {
		r.delta[k] = fit(m.Delta[k].Samples())
	}
	r.front = fit(m.PerfFront.Samples())
	// ParamTables' samples are ordered along the curve and deduplicated.
	x1s, x2s, _ := m.ParamTables[0].Samples()
	lo2, hi2 := scanRange(x2s)
	r.span1, r.span2 = x1s[len(x1s)-1]-x1s[0], hi2-lo2
	if r.span1 == 0 {
		r.span1 = 1
	}
	if r.span2 == 0 {
		r.span2 = 1
	}
	u := make([]float64, len(x1s))
	for i := 1; i < len(u); i++ {
		u[i] = u[i-1] + math.Hypot((x1s[i]-x1s[i-1])/r.span1, (x2s[i]-x2s[i-1])/r.span2)
	}
	total := u[len(u)-1]
	for i := range u {
		u[i] /= total
	}
	r.x1, r.x2 = fit(u, x1s), fit(u, x2s)
	for _, pt := range m.ParamTables {
		_, _, ys := pt.Samples()
		r.params = append(r.params, fit(u, ys))
		r.paramYs = append(r.paramYs, ys)
	}
	return r
}

// scanRange returns the smallest and largest of xs, the first of equal
// values winning.
func scanRange(xs []float64) (lo, hi float64) {
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

// eval1D is Model1D.Eval under Error extrapolation.
func eval1D(c *spline.Curve, x float64) (float64, error) {
	lo, hi := c.Domain()
	if x < lo || x > hi {
		return 0, fmt.Errorf("%w: x = %g outside [%g, %g]", table.ErrOutOfRange, x, lo, hi)
	}
	return c.Eval(x), nil
}

func (r *refModel) project(x1, x2 float64) float64 {
	dist2 := func(u float64) float64 {
		d1 := (r.x1.Eval(u) - x1) / r.span1
		d2 := (r.x2.Eval(u) - x2) / r.span2
		return d1*d1 + d2*d2
	}
	const n = 256
	bestU, bestD := 0.0, math.Inf(1)
	for i := 0; i <= n; i++ {
		uu := float64(i) / n
		if d := dist2(uu); d < bestD {
			bestD, bestU = d, uu
		}
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
	if u := 0.5 * (a + b); dist2(u) < bestD {
		bestU = u
	}
	return bestU
}

// design is the reference Table 3 query, with the engine's error texts.
func (r *refModel) design(spec0, spec1 yield.Spec, scale float64) (*core.Design, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("core: non-positive guard-band scale %g", scale)
	}
	d := &core.Design{Specs: [2]yield.Spec{spec0, spec1}}
	for k, spec := range d.Specs {
		var err error
		if d.DeltaPct[k], err = eval1D(r.delta[k], spec.Bound); err != nil {
			return nil, fmt.Errorf("core: %s spec %g outside model: %w", spec.Name, spec.Bound, err)
		}
		d.Target[k] = yield.GuardBand(spec, scale*d.DeltaPct[k])
	}
	for k, spec := range d.Specs {
		if math.IsInf(d.Target[k], 0) || math.IsNaN(d.Target[k]) {
			return nil, fmt.Errorf("core: guard-banded %s target %g is not finite (guard-band scale %g)",
				spec.Name, d.Target[k], scale)
		}
	}
	lo, hi := r.delta[0].Domain()
	if d.Target[0] < lo || d.Target[0] > hi {
		return nil, fmt.Errorf("core: guard-banded %s target %.4g outside the modelled front [%.4g, %.4g]",
			spec0.Name, d.Target[0], lo, hi)
	}
	frontP1, err := eval1D(r.front, d.Target[0])
	if err != nil {
		return nil, fmt.Errorf("core: front lookup: %w", err)
	}
	meets := frontP1 >= d.Target[1]
	if spec1.Sense == yield.AtMost {
		meets = frontP1 <= d.Target[1]
	}
	if !meets {
		return nil, fmt.Errorf("core: at %s = %.4g the front offers %s = %.4g, short of the guard-banded target %.4g — the specs are not simultaneously achievable at full yield",
			spec0.Name, d.Target[0], spec1.Name, frontP1, d.Target[1])
	}
	d.CurveParam = r.project(d.Target[0], d.Target[1])
	u := d.CurveParam
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	for k, c := range r.params {
		v := c.Eval(u)
		mn, mx := scanRange(r.paramYs[k])
		if v < mn {
			v = mn
		}
		if v > mx {
			v = mx
		}
		d.Params = append(d.Params, v)
	}
	d.FrontPerf = [2]float64{d.Target[0], frontP1}
	d.PredictedYield = 1
	for k, spec := range d.Specs {
		dp, err := eval1D(r.delta[k], d.FrontPerf[k])
		if err != nil {
			dp = d.DeltaPct[k]
		}
		d.PredictedYield *= yield.PredictNormal(spec, d.FrontPerf[k], dp)
	}
	return d, nil
}

// sameDesign reports the first difference between two designs, every
// float compared by its bits; "" means identical.
func sameDesign(got, want *core.Design) string {
	floats := func(d *core.Design) []float64 {
		return append([]float64{d.DeltaPct[0], d.DeltaPct[1], d.Target[0], d.Target[1],
			d.FrontPerf[0], d.FrontPerf[1], d.CurveParam, d.PredictedYield}, d.Params...)
	}
	g, w := floats(got), floats(want)
	if len(g) != len(w) || got.Specs != want.Specs {
		return fmt.Sprintf("shape %v/%d values, want %v/%d", got.Specs, len(g), want.Specs, len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Sprintf("value %d: %v (%x), want %v (%x)", i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
	return ""
}

// FuzzDesignMatchesOracle fuzzes bounds, senses and guard scale (up to
// the float64 maximum) over the golden fronts and demands the engine
// equal the reference: bit for bit on an answer, word for word on an
// error. The engine answers each input twice, on a fresh scratch
// (DesignForScaled) and on one scratch shared across the whole run,
// whose segment hints are left wherever earlier inputs put them.
func FuzzDesignMatchesOracle(f *testing.F) {
	f.Add(uint8(1), 15.0, -3.0, uint8(1), uint8(1), 1e308) // overflows b's target to +Inf
	f.Add(uint8(0), 50.0, 76.0, uint8(0), uint8(0), 1.0)
	f.Add(uint8(0), 48.0, 74.0, uint8(0), uint8(1), math.MaxFloat64)
	f.Add(uint8(2), 46.0, 80.0, uint8(0), uint8(0), 1.7)
	f.Add(uint8(1), 12.0, -4.0, uint8(0), uint8(1), 2.5)
	f.Add(uint8(1), 19.0, -2.5, uint8(1), uint8(0), 5e307)
	f.Add(uint8(3), 49.5, 70.0, uint8(0), uint8(1), 1.0) // the knee
	f.Add(uint8(3), 58.0, 61.0, uint8(1), uint8(0), 0.5) // a sparse tail
	var (
		models []*core.Model
		refs   []*refModel
		shared []*core.DesignScratch
		mu     sync.Mutex
	)
	for _, g := range goldenFronts() {
		m, err := core.BuildModel(g.points, g.objs, g.params, g.units, core.ModelOptions{MaxTablePoints: g.maxPoints})
		if err != nil {
			f.Fatal(err)
		}
		models, refs, shared = append(models, m), append(refs, newRefModel(f, m)), append(shared, new(core.DesignScratch))
	}
	senses := []yield.Sense{yield.AtLeast, yield.AtMost}
	f.Fuzz(func(t *testing.T, which uint8, b0, b1 float64, s0, s1 uint8, scale float64) {
		k := int(which) % len(models)
		names := models[k].ObjectiveNames
		spec0 := yield.Spec{Name: names[0], Sense: senses[int(s0)%2], Bound: b0}
		spec1 := yield.Spec{Name: names[1], Sense: senses[int(s1)%2], Bound: b1}
		want, werr := refs[k].design(spec0, spec1, scale)
		fresh, ferr := models[k].DesignForScaled(spec0, spec1, scale)
		mu.Lock()
		defer mu.Unlock()
		var warm core.Design
		herr := models[k].DesignInto(&warm, spec0, spec1, scale, shared[k])
		for _, c := range []struct {
			name string
			d    *core.Design
			err  error
		}{{"DesignForScaled", fresh, ferr}, {"DesignInto (warm scratch)", &warm, herr}} {
			switch {
			case werr != nil:
				if c.err == nil || c.err.Error() != werr.Error() {
					t.Fatalf("%v %v ×%g: %s error %v, reference %q", spec0, spec1, scale, c.name, c.err, werr)
				}
			case c.err != nil:
				t.Fatalf("%v %v ×%g: %s error %v, reference answered", spec0, spec1, scale, c.name, c.err)
			default:
				if diff := sameDesign(c.d, want); diff != "" {
					t.Fatalf("%v %v ×%g: %s %s", spec0, spec1, scale, c.name, diff)
				}
			}
		}
	})
}
