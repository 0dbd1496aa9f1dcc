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

// This file is the yield-query engine: when a model enters the registry
// it is compiled once into an immutable CompiledModel, and every query
// (single, rendered, batched or version-pinned) runs against that
// compiled form — struct-of-arrays spline coefficients evaluated with
// segment-hint reuse, the projection coarse scan resolved against a
// precomputed grid, parameter clamp ranges and the static parts of the
// response JSON pre-rendered — with per-query scratch drawn from a
// sync.Pool so the steady state allocates nothing.
//
// The engine's contract is bit-identity with core.Model.DesignForScaled:
// CompiledModel.solve reproduces the interpreted Table 3 arithmetic bit
// for bit, because every floating-point expression is evaluated in the
// same order on the same values. A query the engine cannot answer takes
// its error from DesignForScaled itself, so core stays the one place
// Table 3's error text is written. Golden tests (compiled_test.go) and
// FuzzQueryMatchesOracle check both against the interpreted oracle.

// projGridN is the resolution of the projection coarse scan. It MUST
// equal the `const n = 256` inside table.CurveModel2D.Project: the
// compiled path replays that scan against precomputed curve values, and
// the golden bit-identity test fails if the two drift apart.
const projGridN = 256

// CompiledModel is the immutable compiled form of one registry model.
// All fields are read-only after CompileModel returns, so any number of
// query goroutines share one instance without synchronisation.
type CompiledModel struct {
	model  *core.Model // source model: error text, labels, catalog info
	tenant string      // catalog namespace ("" never occurs; default stays off the wire)
	name   string      // catalog name

	// Variation and front tables (Model1D, Error extrapolation).
	delta0, delta1, front compiled1D
	lo0, hi0              float64 // Delta[0].Domain(): feasibility window of target 0

	// Projection onto the Pareto front (CurveModel2D #0).
	fx1, fx2     *spline.Compiled
	span1, span2 float64
	gx1, gx2     []float64 // fx1/fx2 at the coarse-scan grid u = i/projGridN
	gseg         []int32   // u-axis segment at each grid point (hint seed)

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
// out of range.
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
// the engine does not cover (e.g. quadratic interpolation), and the
// registry refuses the model. core.BuildModel never builds one.
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
// across queries, the parameter staging buffer and the JSON render
// buffer. Pooled so the steady-state query path performs zero
// allocations.
type queryScratch struct {
	params  []float64
	hParams []int
	buf     []byte

	hDelta0, hDelta1, hFront int
	hProj1, hProj2           int
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

// solve answers one query. A query with no design (bad sense,
// non-positive scale, out-of-range bound, non-finite target, infeasible
// spec pair) fails with core.Model.DesignForScaled's error for the same
// specs and scale.
func (cm *CompiledModel) solve(req api.QueryRequest, sc *queryScratch) (solvedQuery, error) {
	var s solvedQuery
	var err error
	if s.spec0, err = req.Specs[0].ToYield(); err != nil {
		return s, err
	}
	if s.spec1, err = req.Specs[1].ToYield(); err != nil {
		return s, err
	}
	scale := req.GuardScale
	if scale == 0 {
		scale = 1
	}
	if cm.answer(&s, scale, sc) {
		return s, nil
	}
	if _, err := cm.model.DesignForScaled(s.spec0, s.spec1, scale); err != nil {
		return s, err
	}
	return s, fmt.Errorf("server: model %s/%s: the compiled engine refused a query the model answers",
		cm.tenant, cm.name)
}

// answer runs the Table 3 arithmetic for s's specs into s. false means
// the query has no design; solve then asks core for the reason.
func (cm *CompiledModel) answer(s *solvedQuery, scale float64, sc *queryScratch) bool {
	if scale <= 0 {
		return false
	}
	d0, ok := cm.delta0.evalHint(s.spec0.Bound, &sc.hDelta0)
	if !ok {
		return false
	}
	d1, ok := cm.delta1.evalHint(s.spec1.Bound, &sc.hDelta1)
	if !ok {
		return false
	}
	s.deltaPct[0], s.deltaPct[1] = d0, d1
	s.target[0] = yield.GuardBand(s.spec0, scale*d0)
	s.target[1] = yield.GuardBand(s.spec1, scale*d1)
	for _, t := range s.target {
		if math.IsInf(t, 0) || math.IsNaN(t) {
			return false
		}
	}
	if s.target[0] < cm.lo0 || s.target[0] > cm.hi0 {
		return false
	}
	frontP1, ok := cm.front.evalHint(s.target[0], &sc.hFront)
	if !ok {
		return false
	}
	if !meetsSpec(s.spec1, frontP1, s.target[1]) {
		return false
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

	// Model-only yield estimate, with the interpreted path's edge-of-axis
	// fallback: a front point outside a variation table's domain reuses
	// the spec-bound interpolation already computed.
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
	return true
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
// splines with segment hints seeded from the grid point's segment, so
// the refinement runs without a single binary search.
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
