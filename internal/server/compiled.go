package server

import (
	"fmt"
	"math"
	"sync"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
	"analogyield/internal/spline"
	"analogyield/internal/table"
	"analogyield/internal/yield"
)

// This file is the compiled yield-query engine: when a model enters the
// registry it is compiled once into an immutable CompiledModel, and the
// serving hot path (POST /v1/yield/query) runs entirely against that
// compiled form — struct-of-arrays spline coefficients evaluated with
// segment-hint reuse, the projection coarse scan resolved against a
// precomputed grid, parameter clamp ranges and the static parts of the
// response JSON pre-rendered — with per-query scratch drawn from a
// sync.Pool so the steady state allocates nothing.
//
// The engine's contract is bit-identity: CompiledModel.solve reproduces
// solveQuery (the interpreted reference path, which stays in
// registry.go) bit for bit, because every floating-point expression is
// evaluated in the same order on the same values. Whenever the compiled
// path cannot answer (spec parse failure, out-of-range bound, infeasible
// spec pair, uncompilable table degree) it reports !ok and the caller
// re-runs the interpreted path, which produces the exact error the
// pre-compiled server returned. Golden tests (compiled_test.go) assert
// both properties.

// projGridN is the resolution of the projection coarse scan. It MUST
// equal the `const n = 256` inside table.CurveModel2D.Project: the
// compiled path replays that scan against precomputed curve values, and
// the golden bit-identity test fails if the two drift apart.
const projGridN = 256

// CompiledModel is the immutable compiled form of one registry model.
// All fields are read-only after CompileModel returns, so any number of
// query goroutines share one instance without synchronisation.
type CompiledModel struct {
	model  *core.Model // interpreted reference (error paths, fallbacks)
	tenant string      // catalog namespace ("" never occurs; default stays off the wire)
	name   string      // catalog name

	// Variation and front tables (Model1D, Error extrapolation).
	delta0, delta1, front compiled1D
	delta0Tbl, delta1Tbl  *table.Model1D // batch staging via table.EvalBatch
	lo0, hi0              float64        // Delta[0].Domain(): feasibility window of target 0

	// Projection onto the Pareto front (CurveModel2D #0).
	fx1, fx2     *spline.Compiled
	span1, span2 float64
	gx1, gx2     []float64 // fx1/fx2 at the coarse-scan grid u = i/projGridN
	gseg         []int32   // u-axis segment at each grid point (hint seed)
	inv          *inverseTable

	// Parameter outputs Y_k(u) with their precomputed clamp ranges.
	params []compiledParam

	// Pre-rendered response fragments (json.go).
	jsonHead   []byte   // {"model":"<name>"[,"tenant":"<t>"],"targets":[
	paramHeads [][]byte // per param: {"name":...,["unit":...,]"value":
	jsonDeltas []byte   // ],"delta_pct":[
	jsonFront  []byte   // ],"front_perf":[
	jsonParams []byte   // ],"params":[
	jsonYield  []byte   // ],"predicted_yield":
	jsonCurve  []byte   // ,"curve_param":
	jsonTail   []byte   // }\n
}

// compiled1D is a Model1D flattened for hint-based evaluation; only the
// Error extrapolation policy is compiled (the policy every BuildModel
// table uses).
type compiled1D struct {
	c      *spline.Compiled
	lo, hi float64
}

func compile1D(m *table.Model1D) (compiled1D, error) {
	if m.Control().Extrap != table.ExtrapError {
		return compiled1D{}, fmt.Errorf("server: extrapolation mode %d not compiled", m.Control().Extrap)
	}
	c := m.Compiled()
	if c == nil {
		return compiled1D{}, fmt.Errorf("server: table degree has no compiled form")
	}
	lo, hi := m.Domain()
	return compiled1D{c: c, lo: lo, hi: hi}, nil
}

// evalHint evaluates with Model1D.Eval's exact range check; false means
// out of range (the interpreted path re-runs for the exact error).
func (t *compiled1D) evalHint(x float64, hint *int) (float64, bool) {
	if x < t.lo || x > t.hi {
		return 0, false
	}
	y, h := t.c.EvalHint(x, *hint)
	*hint = h
	return y, true
}

// compiledParam is one parameter output spline with the clamp range the
// interpreted path recomputes from Samples() on every query.
type compiledParam struct {
	fy       *spline.Compiled
	min, max float64
}

// CompileModel builds the compiled query engine for a model served under
// the given (tenant, name). An error means the model uses a construction
// the engine does not cover (e.g. quadratic interpolation); the registry
// then serves it on the interpreted path instead.
func CompileModel(tenant, name string, m *core.Model) (*CompiledModel, error) {
	cm := &CompiledModel{model: m, tenant: tenant, name: name}
	var err error
	if cm.delta0, err = compile1D(m.Delta[0]); err != nil {
		return nil, err
	}
	if cm.delta1, err = compile1D(m.Delta[1]); err != nil {
		return nil, err
	}
	if cm.front, err = compile1D(m.PerfFront); err != nil {
		return nil, err
	}
	cm.delta0Tbl, cm.delta1Tbl = m.Delta[0], m.Delta[1]
	cm.lo0, cm.hi0 = m.Delta[0].Domain()

	if len(m.ParamTables) == 0 {
		return nil, fmt.Errorf("server: model has no parameter tables")
	}
	fx1, fx2, _ := m.ParamTables[0].Interps()
	if cm.fx1, err = spline.Compile(fx1); err != nil {
		return nil, err
	}
	if cm.fx2, err = spline.Compile(fx2); err != nil {
		return nil, err
	}
	cm.span1, cm.span2 = m.ParamTables[0].Spans()

	// Pre-resolve the coarse-scan grid: the interpreted Project evaluates
	// fx1 and fx2 at the same 257 fixed parameters on every query; the
	// compiled scan reads these precomputed values instead. fx1, fx2 and
	// fy share one knot vector (they are fitted on the same arc-length
	// parameterisation), so a single segment array seeds all hints.
	cm.gx1 = make([]float64, projGridN+1)
	cm.gx2 = make([]float64, projGridN+1)
	cm.gseg = make([]int32, projGridN+1)
	h1, h2 := -1, -1
	for i := 0; i <= projGridN; i++ {
		u := float64(i) / projGridN
		cm.gx1[i], h1 = cm.fx1.EvalHint(u, h1)
		cm.gx2[i], h2 = cm.fx2.EvalHint(u, h2)
		cm.gseg[i] = int32(h1)
	}
	cm.inv = buildInverseTable(cm.fx1, 4*cm.fx1.Segments()+1)

	cm.params = make([]compiledParam, len(m.ParamTables))
	for k, t := range m.ParamTables {
		_, _, fy := t.Interps()
		comp, err := spline.Compile(fy)
		if err != nil {
			return nil, err
		}
		// The interpreted path rescans Samples() for the clamp range on
		// every query; min/max are order-independent, so precomputing here
		// preserves bit-identity.
		_, _, ys := t.Samples()
		mn, mx := ys[0], ys[0]
		for _, y := range ys[1:] {
			if y < mn {
				mn = y
			}
			if y > mx {
				mx = y
			}
		}
		cm.params[k] = compiledParam{fy: comp, min: mn, max: mx}
	}
	if err := cm.prepareJSON(tenant, name, m.ParamNames, m.ParamUnits); err != nil {
		return nil, err
	}
	return cm, nil
}

// queryScratch is the per-query reusable state: segment hints warmed
// across queries, the parameter staging buffer, batch staging vectors
// and the JSON render buffer. Pooled so the steady-state query path
// performs zero allocations.
type queryScratch struct {
	params  []float64
	hParams []int
	buf     []byte

	hDelta0, hDelta1, hFront int
	hProj1, hProj2           int

	// batch staging (Registry.queryGroup)
	bounds0, bounds1 []float64
	d0s, d1s         []float64
	stage            []int
	sq               []solvedQuery
	scales           []float64
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch   { return scratchPool.Get().(*queryScratch) }
func putScratch(sc *queryScratch) { scratchPool.Put(sc) }

// solvedQuery carries one compiled answer; Params live in the scratch
// buffer and are only valid until the scratch is reused.
type solvedQuery struct {
	spec0, spec1   yield.Spec
	deltaPct       [2]float64
	target         [2]float64
	frontPerf      [2]float64
	params         []float64
	curveParam     float64
	predictedYield float64
}

// solve answers one query on the compiled path. ok == false means the
// request needs the interpreted path (bad sense, non-positive scale,
// out-of-range or infeasible specs) — the caller re-runs solveQuery for
// the bit-identical error.
func (cm *CompiledModel) solve(req api.QueryRequest, sc *queryScratch) (solvedQuery, bool) {
	var s solvedQuery
	var err error
	if s.spec0, err = req.Specs[0].ToYield(); err != nil {
		return s, false
	}
	if s.spec1, err = req.Specs[1].ToYield(); err != nil {
		return s, false
	}
	scale := req.GuardScale
	if scale == 0 {
		scale = 1
	}
	if scale <= 0 {
		return s, false
	}
	d0, ok := cm.delta0.evalHint(s.spec0.Bound, &sc.hDelta0)
	if !ok {
		return s, false
	}
	d1, ok := cm.delta1.evalHint(s.spec1.Bound, &sc.hDelta1)
	if !ok {
		return s, false
	}
	return cm.solveFrom(&s, scale, d0, d1, sc)
}

// solveFrom finishes a query whose variation interpolations are already
// in hand (the batch path stages them through table.EvalBatch).
func (cm *CompiledModel) solveFrom(s *solvedQuery, scale, d0, d1 float64, sc *queryScratch) (solvedQuery, bool) {
	s.deltaPct[0], s.deltaPct[1] = d0, d1
	s.target[0] = yield.GuardBand(s.spec0, scale*d0)
	s.target[1] = yield.GuardBand(s.spec1, scale*d1)
	if s.target[0] < cm.lo0 || s.target[0] > cm.hi0 {
		return *s, false
	}
	frontP1, ok := cm.front.evalHint(s.target[0], &sc.hFront)
	if !ok {
		return *s, false
	}
	if !meetsSpec(s.spec1, frontP1, s.target[1]) {
		return *s, false
	}

	u := cm.project(s.target[0], s.target[1], sc)
	s.curveParam = u
	if cap(sc.params) < len(cm.params) {
		sc.params = make([]float64, 0, len(cm.params))
		sc.hParams = make([]int, len(cm.params))
	}
	sc.params = sc.params[:0]
	for k := range cm.params {
		p := &cm.params[k]
		v := p.evalAt(u, &sc.hParams[k])
		if v < p.min {
			v = p.min
		}
		if v > p.max {
			v = p.max
		}
		sc.params = append(sc.params, v)
	}
	s.params = sc.params
	s.frontPerf[0] = s.target[0]
	s.frontPerf[1] = frontP1

	// Model-only yield estimate, with solveQuery's edge-of-axis fallback:
	// a front point outside a variation table's domain reuses the
	// spec-bound interpolation already computed.
	vd0, ok := cm.delta0.evalHint(s.frontPerf[0], &sc.hDelta0)
	if !ok {
		vd0 = d0
	}
	vd1, ok := cm.delta1.evalHint(s.frontPerf[1], &sc.hDelta1)
	if !ok {
		vd1 = d1
	}
	s.predictedYield = yield.PredictNormal(s.spec0, s.frontPerf[0], vd0) *
		yield.PredictNormal(s.spec1, s.frontPerf[1], vd1)
	return *s, true
}

// evalAt is CurveModel2D.EvalAt on the compiled output spline.
func (p *compiledParam) evalAt(u float64, hint *int) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	v, h := p.fy.EvalHint(u, *hint)
	*hint = h
	return v
}

// meetsSpec mirrors core's feasibility comparison.
func meetsSpec(spec yield.Spec, offered, target float64) bool {
	if spec.Sense == yield.AtMost {
		return offered <= target
	}
	return offered >= target
}

// project replays table.CurveModel2D.Project bit for bit: the coarse
// scan reads the precomputed grid instead of evaluating two splines 257
// times, and the golden-section refinement evaluates the compiled
// splines with segment hints seeded from the grid (or, when the front is
// monotone in performance 0, from the inverse table's spec→parameter
// estimate), so the refinement runs without a single binary search.
func (cm *CompiledModel) project(x1, x2 float64, sc *queryScratch) float64 {
	const n = projGridN
	bestU, bestD := 0.0, math.Inf(1)
	bestI := 0
	for i := 0; i <= n; i++ {
		d1 := (cm.gx1[i] - x1) / cm.span1
		d2 := (cm.gx2[i] - x2) / cm.span2
		if d := d1*d1 + d2*d2; d < bestD {
			bestD, bestU = d, float64(i)/n
			bestI = i
		}
	}
	h := int(cm.gseg[bestI])
	if cm.inv != nil {
		if ih, ok := cm.inv.hint(x1); ok {
			h = ih
		}
	}
	sc.hProj1, sc.hProj2 = h, h
	dist2 := func(u float64) float64 {
		v1, h1 := cm.fx1.EvalHint(u, sc.hProj1)
		v2, h2 := cm.fx2.EvalHint(u, sc.hProj2)
		sc.hProj1, sc.hProj2 = h1, h2
		d1 := (v1 - x1) / cm.span1
		d2 := (v2 - x2) / cm.span2
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
	u := 0.5 * (a + b)
	if bd := dist2(u); bd < bestD {
		bestU = u
	}
	return bestU
}

// response materialises a solved query as the wire struct (the
// programmatic Query path; the HTTP path renders JSON directly from the
// solvedQuery without building this).
func (cm *CompiledModel) response(s *solvedQuery) *api.QueryResponse {
	resp := &api.QueryResponse{
		Model:          cm.name,
		Tenant:         wireTenant(cm.tenant),
		Targets:        s.target,
		DeltaPct:       s.deltaPct,
		FrontPerf:      s.frontPerf,
		CurveParam:     s.curveParam,
		PredictedYield: s.predictedYield,
		Params:         make([]api.Param, len(s.params)),
	}
	m := cm.model
	for i, v := range s.params {
		p := api.Param{Name: m.ParamNames[i], Value: v}
		if i < len(m.ParamUnits) {
			p.Unit = m.ParamUnits[i]
		}
		resp.Params[i] = p
	}
	return resp
}

// inverseTable is the precomputed monotone inverse of a compiled curve:
// it maps an output value (a guard-banded performance target) back to
// the input position (the front's curve parameter) that produces it —
// the spec→parameter direction of the paper's Table 3 lookup. The table
// is built only when the forward curve is verifiably monotone, and its
// entries are checked at build time: buildInverseTable returns nil
// rather than a table that regresses. The query engine uses it to seed
// segment hints for the projection refinement; FuzzInverseTableMonotonic
// asserts monotonicity and round-trip accuracy against spline.Cubic.
type inverseTable struct {
	ylo, yhi float64
	xs       []float64 // solved inputs at evenly spaced outputs in [ylo,yhi]
	segs     []int32   // forward-curve segment containing xs[i]
	inc      bool      // forward curve increasing in y
}

// buildInverseTable samples the inverse of c at `points` evenly spaced
// outputs. It returns nil when the knot values are not strictly
// monotone, or when the solved inverse itself regresses (a natural cubic
// overshooting between monotone knots): a nil table only costs the hint
// seeding, never correctness.
func buildInverseTable(c *spline.Compiled, points int) *inverseTable {
	nseg := c.Segments()
	n := nseg + 1
	if n < 2 {
		return nil
	}
	inc := c.KnotY(1) > c.KnotY(0)
	for i := 1; i < n; i++ {
		if inc && c.KnotY(i) <= c.KnotY(i-1) {
			return nil
		}
		if !inc && c.KnotY(i) >= c.KnotY(i-1) {
			return nil
		}
	}
	ylo, yhi := c.KnotY(0), c.KnotY(n-1)
	if !inc {
		ylo, yhi = yhi, ylo
	}
	if points < 2 {
		points = 2
	}
	t := &inverseTable{
		ylo: ylo, yhi: yhi, inc: inc,
		xs:   make([]float64, points),
		segs: make([]int32, points),
	}
	// March in x order (ascending input) so the bracketing segment only
	// ever advances; store in ascending-y order.
	seg := 0
	prevX := math.Inf(-1)
	for j := 0; j < points; j++ {
		frac := float64(j) / float64(points-1)
		var y float64
		if inc {
			y = ylo + (yhi-ylo)*frac
		} else {
			y = yhi + (ylo-yhi)*frac
		}
		for seg < nseg-1 {
			y0, y1 := c.KnotY(seg), c.KnotY(seg+1)
			if (y0 <= y && y <= y1) || (y1 <= y && y <= y0) {
				break
			}
			seg++
		}
		x := bisectSegment(c, seg, y)
		if x < prevX {
			return nil // forward curve wiggles inside a segment
		}
		prevX = x
		idx := j
		if !inc {
			idx = points - 1 - j
		}
		t.xs[idx] = x
		t.segs[idx] = int32(seg)
	}
	return t
}

// bisectSegment solves c(x) = y inside segment seg (the knot values
// bracket y by construction), mirroring spline.Cubic.Invert's bisection.
func bisectSegment(c *spline.Compiled, seg int, y float64) float64 {
	a, b := c.Knot(seg), c.Knot(seg+1)
	fa := c.Eval(a) - y
	if fa == 0 {
		// The root is the left knot itself (grid endpoints land here);
		// the sign-based loop below would walk away from it.
		return a
	}
	for iter := 0; iter < 80; iter++ {
		mid := 0.5 * (a + b)
		fm := c.Eval(mid) - y
		if fm == 0 || (b-a) < 1e-15*(math.Abs(a)+math.Abs(b)+1) {
			return mid
		}
		if (fa < 0) == (fm < 0) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return 0.5 * (a + b)
}

// hint returns the forward-curve segment believed to contain the input
// that maps to output y (clamped into the table's range).
func (t *inverseTable) hint(y float64) (int, bool) {
	span := t.yhi - t.ylo
	if span <= 0 {
		return 0, false
	}
	f := (y - t.ylo) / span
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	i := int(f * float64(len(t.xs)-1))
	if i > len(t.xs)-1 {
		i = len(t.xs) - 1
	}
	return int(t.segs[i]), true
}

// invert returns the table's input estimate for output y (nearest grid
// entry) — exported to tests via same-package access; the query path
// only consumes hint().
func (t *inverseTable) invert(y float64) float64 {
	span := t.yhi - t.ylo
	f := (y - t.ylo) / span
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	i := int(f*float64(len(t.xs)-1) + 0.5)
	if i > len(t.xs)-1 {
		i = len(t.xs) - 1
	}
	return t.xs[i]
}
