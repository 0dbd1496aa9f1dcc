package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"analogyield/internal/spline"
	"analogyield/internal/table"
	"analogyield/internal/yield"
)

// ParetoPoint is one Pareto-optimal design with its Monte Carlo
// variation figures — one row of the paper's Table 2.
type ParetoPoint struct {
	// Params are the physical parameter values (table units, e.g. µm).
	Params []float64
	// Perf holds the two nominal performance values (e.g. gain dB, PM deg).
	Perf [2]float64
	// DeltaPct holds the MC variation Δ% of each performance
	// (100·3σ/µ, the paper's ΔGain/ΔPM columns).
	DeltaPct [2]float64
}

// Model is the combined performance + variation behavioural model: the
// lookup tables the paper loads through $table_model() with control
// string "3E" (cubic spline, no extrapolation).
type Model struct {
	// ObjectiveNames and ParamNames label the table columns.
	ObjectiveNames []string
	ParamNames     []string
	ParamUnits     []string

	// Points are the table rows, sorted by the first performance.
	Points []ParetoPoint

	// Delta[k] maps performance k → its variation Δ%
	// (gain_delta.tbl / pm_delta.tbl in the paper).
	Delta [2]*table.Model1D
	// PerfFront maps performance 0 → performance 1 along the front.
	PerfFront *table.Model1D
	// ParamTables[i] maps (perf0, perf1) → parameter i
	// (the paper's lp*_data.tbl files).
	ParamTables []*table.CurveModel2D
}

// ModelOptions tunes table construction.
type ModelOptions struct {
	// MaxTablePoints caps the number of knots per table; the Pareto set,
	// sorted by performance 0, is thinned to this count by taking points
	// at evenly spaced indices, endpoints included (0 = default 200;
	// 1 to 3 are rejected with ErrTablePoints). Dense fronts (the paper
	// finds 1022 points) oscillate under cubic splines if every point
	// becomes a knot.
	MaxTablePoints int
}

// ErrTablePoints rejects a MaxTablePoints of 1 to 3: every table needs
// at least four knots.
var ErrTablePoints = errors.New("core: MaxTablePoints must be 0 (the default cap) or at least 4")

// minPerfSeparation merges Pareto points whose performance values are
// closer than this.
const minPerfSeparation = 1e-6

// tableCtrl is the interpolation control of every table BuildModel
// fits: shape-preserving monotone cubics (PCHIP) under the paper's
// no-extrapolation ("E") policy. PCHIP matches the paper's natural
// cubic "3E" at the knots and is C1-smooth, but is immune to the
// overshoot natural splines exhibit when the front is unevenly
// sampled. Generated Verilog-A uses "3E" (Verilog-A has no PCHIP mode).
var tableCtrl = table.Control{Degree: spline.DegreeMonotoneCubic, Extrap: table.ExtrapError}

// validate rejects option values no table can be built with.
func (o ModelOptions) validate() error {
	if o.MaxTablePoints >= 1 && o.MaxTablePoints < 4 {
		return fmt.Errorf("%w, got %d", ErrTablePoints, o.MaxTablePoints)
	}
	return nil
}

func (o ModelOptions) withDefaults() ModelOptions {
	if o.MaxTablePoints <= 0 {
		o.MaxTablePoints = 200
	}
	return o
}

// BuildModel constructs the table model from Monte-Carlo-annotated
// Pareto points. Points must carry both performances; at least four
// distinct points are required for cubic interpolation.
func BuildModel(points []ParetoPoint, objNames, paramNames, paramUnits []string, opts ModelOptions) (*Model, error) {
	if len(points) < 4 {
		return nil, fmt.Errorf("core: %d Pareto points, need at least 4", len(points))
	}
	if len(objNames) != 2 {
		return nil, fmt.Errorf("core: table model needs exactly 2 objectives, got %d", len(objNames))
	}
	np := len(points[0].Params)
	if np == 0 || len(paramNames) != np {
		return nil, fmt.Errorf("core: parameter naming mismatch (%d params, %d names)", np, len(paramNames))
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()

	// Sort by performance 0 and merge near-duplicates.
	pts := append([]ParetoPoint(nil), points...)
	slices.SortFunc(pts, func(a, b ParetoPoint) int { return byLess(a.Perf[0], b.Perf[0]) })
	merged := pts[:0]
	for _, p := range pts {
		if len(merged) > 0 && p.Perf[0]-merged[len(merged)-1].Perf[0] < minPerfSeparation {
			continue
		}
		merged = append(merged, p)
	}
	if len(merged) < 4 {
		return nil, fmt.Errorf("core: only %d distinct Pareto points after merging", len(merged))
	}
	// Thin to MaxTablePoints with even index spacing (keep endpoints).
	kept := merged
	if len(merged) > o.MaxTablePoints {
		kept = make([]ParetoPoint, 0, o.MaxTablePoints)
		step := float64(len(merged)-1) / float64(o.MaxTablePoints-1)
		last := -1
		for i := 0; i < o.MaxTablePoints; i++ {
			idx := int(math.Round(float64(i) * step))
			if idx == last {
				continue
			}
			last = idx
			kept = append(kept, merged[idx])
		}
	}

	m := &Model{
		ObjectiveNames: append([]string(nil), objNames...),
		ParamNames:     append([]string(nil), paramNames...),
		ParamUnits:     append([]string(nil), paramUnits...),
		Points:         kept,
	}
	p0 := make([]float64, len(kept))
	p1 := make([]float64, len(kept))
	d0 := make([]float64, len(kept))
	d1 := make([]float64, len(kept))
	for i, p := range kept {
		p0[i], p1[i] = p.Perf[0], p.Perf[1]
		d0[i], d1[i] = p.DeltaPct[0], p.DeltaPct[1]
	}
	var err error
	if m.Delta[0], err = table.NewModel1D(p0, d0, tableCtrl); err != nil {
		return nil, fmt.Errorf("core: %s delta table: %w", objNames[0], err)
	}
	// Performance 1 is keyed on its own axis; it must be deduplicated
	// separately because the front can be locally flat in perf 1.
	q1, qd := dedupeBy(p1, d1, minPerfSeparation)
	if len(q1) < 4 {
		return nil, fmt.Errorf("core: %s axis has only %d distinct values", objNames[1], len(q1))
	}
	if m.Delta[1], err = table.NewModel1D(q1, qd, tableCtrl); err != nil {
		return nil, fmt.Errorf("core: %s delta table: %w", objNames[1], err)
	}
	if m.PerfFront, err = table.NewModel1D(p0, p1, tableCtrl); err != nil {
		return nil, fmt.Errorf("core: front table: %w", err)
	}
	// Every parameter table shares parameter 0's arc-length front: the
	// front depends only on the performance samples, so it is fitted
	// once.
	m.ParamTables = make([]*table.CurveModel2D, np)
	for k := 0; k < np; k++ {
		vals := make([]float64, len(kept))
		for i, p := range kept {
			if len(p.Params) != np {
				return nil, fmt.Errorf("core: point %d has %d params, want %d", i, len(p.Params), np)
			}
			vals[i] = p.Params[k]
		}
		var t *table.CurveModel2D
		if k == 0 {
			t, err = table.NewCurveModel2D(p0, p1, vals, tableCtrl, tableCtrl)
		} else {
			t, err = m.ParamTables[0].WithOutput(vals)
		}
		if err != nil {
			return nil, fmt.Errorf("core: parameter table %s: %w", paramNames[k], err)
		}
		m.ParamTables[k] = t
	}
	return m, nil
}

// byLess compares a and b under <: negative exactly when a < b, so a
// NaN compares equal to everything (cmp.Compare would order it first)
// and slices.SortFunc places every element, ties and NaNs included,
// where sort.Slice with < places it: both run the same pdqsort on the
// sign of the comparison.
func byLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// dedupeBy sorts (x, y) by x and merges points closer than sep.
func dedupeBy(x, y []float64, sep float64) ([]float64, []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(x))
	for i := range x {
		pts[i] = pt{x[i], y[i]}
	}
	slices.SortFunc(pts, func(a, b pt) int { return byLess(a.x, b.x) })
	var ox, oy []float64
	for _, p := range pts {
		if len(ox) > 0 && p.x-ox[len(ox)-1] < sep {
			continue
		}
		ox = append(ox, p.x)
		oy = append(oy, p.y)
	}
	return ox, oy
}

// Design is the outcome of a yield-targeted spec query (Table 3 plus the
// interpolated parameters).
type Design struct {
	Specs      [2]yield.Spec // the required performances
	DeltaPct   [2]float64    // interpolated variation at the spec bounds
	Target     [2]float64    // guard-banded performance targets
	FrontPerf  [2]float64    // performance of the selected front point
	Params     []float64     // interpolated parameters (table units)
	CurveParam float64       // position along the front (0..1)
	// PredictedYield is the model-only yield estimate at the selected
	// front point: each performance normal with the Δ% its variation
	// table gives at FrontPerf (the spec-bound Δ% where the point leaves
	// that table's domain), the two independent.
	PredictedYield float64
}

// DesignScratch is the caller-owned state DesignInto reuses: segment
// hints carried from one query to the next, and the parameter buffer a
// Design's Params alias. The zero value is ready; one goroutine at a
// time may use a scratch.
type DesignScratch struct {
	delta  [2]int // Delta[k] segment hints
	front  int    // PerfFront segment hint
	param  int    // ParamTables segment hint (all share one front)
	params []float64
}

// DesignFor performs the paper's yield-targeted design query: it
// interpolates the variation at each spec bound, guard-bands the bound
// into a new target (Table 3), verifies the front can meet both targets
// simultaneously, and interpolates the designable parameters at the
// projected front point.
func (m *Model) DesignFor(spec0, spec1 yield.Spec) (*Design, error) {
	return m.DesignForScaled(spec0, spec1, 1)
}

// DesignForScaled is DesignFor with the guard band widened (or narrowed)
// by the given factor: the interpolated Δ% values are multiplied by
// scale before the targets are computed. The paper's ±3σ band covers
// ~99.7% of the population; scaling it is how DesignForYieldTarget
// pushes the verified yield toward an arbitrary goal.
func (m *Model) DesignForScaled(spec0, spec1 yield.Spec, scale float64) (*Design, error) {
	d := new(Design)
	if err := m.DesignInto(d, spec0, spec1, scale, new(DesignScratch)); err != nil {
		return nil, err
	}
	return d, nil
}

// DesignInto is DesignForScaled without allocation: it writes the
// design into d, whose Params alias sc's buffer until sc is used again,
// and starts every table lookup from the segment sc recorded on the
// previous query. Only an error allocates; d is then undefined.
func (m *Model) DesignInto(d *Design, spec0, spec1 yield.Spec, scale float64, sc *DesignScratch) error {
	if scale <= 0 {
		return fmt.Errorf("core: non-positive guard-band scale %g", scale)
	}
	d.Specs = [2]yield.Spec{spec0, spec1}
	for k, spec := range d.Specs {
		var ok bool
		if d.DeltaPct[k], ok = m.Delta[k].EvalHint(spec.Bound, &sc.delta[k]); !ok {
			_, err := m.Delta[k].Eval(spec.Bound)
			return fmt.Errorf("core: %s spec %g outside model: %w", spec.Name, spec.Bound, err)
		}
	}
	d.Target[0] = yield.GuardBand(spec0, scale*d.DeltaPct[0])
	d.Target[1] = yield.GuardBand(spec1, scale*d.DeltaPct[1])
	// A huge scale can overflow scale·Δ%; an infinite target would pass
	// the feasibility test below for the right sign of bound.
	for k, spec := range d.Specs {
		if math.IsInf(d.Target[k], 0) || math.IsNaN(d.Target[k]) {
			return fmt.Errorf("core: guard-banded %s target %g is not finite (guard-band scale %g)",
				spec.Name, d.Target[k], scale)
		}
	}

	// Feasibility: the front's perf-1 at the perf-0 target must meet the
	// perf-1 target (both specs must hold at one design point).
	lo, hi := m.Delta[0].Domain()
	if d.Target[0] < lo || d.Target[0] > hi {
		return fmt.Errorf("core: guard-banded %s target %.4g outside the modelled front [%.4g, %.4g]",
			spec0.Name, d.Target[0], lo, hi)
	}
	frontP1, ok := m.PerfFront.EvalHint(d.Target[0], &sc.front)
	if !ok {
		_, err := m.PerfFront.Eval(d.Target[0])
		return fmt.Errorf("core: front lookup: %w", err)
	}
	if !meets(spec1, frontP1, d.Target[1]) {
		return fmt.Errorf("core: at %s = %.4g the front offers %s = %.4g, short of the guard-banded target %.4g — the specs are not simultaneously achievable at full yield",
			spec0.Name, d.Target[0], spec1.Name, frontP1, d.Target[1])
	}

	// Project the target pair onto the front and read all parameter
	// tables at the same curve position for a consistent design.
	u, _ := m.ParamTables[0].Project(d.Target[0], d.Target[1])
	d.CurveParam = u
	sc.params = sc.params[:0]
	for _, t := range m.ParamTables {
		v := t.EvalAtHint(u, &sc.param)
		// Keep interpolated parameters inside the sampled value range:
		// spline overshoot must not produce a parameter no Pareto design
		// ever used (the no-extrapolation principle applied to outputs).
		mn, mx := t.OutputRange()
		if v < mn {
			v = mn
		}
		if v > mx {
			v = mx
		}
		sc.params = append(sc.params, v)
	}
	d.Params = sc.params
	d.FrontPerf[0] = d.Target[0]
	d.FrontPerf[1] = frontP1

	d.PredictedYield = 1
	for k, spec := range d.Specs {
		dp, ok := m.Delta[k].EvalHint(d.FrontPerf[k], &sc.delta[k])
		if !ok {
			dp = d.DeltaPct[k]
		}
		d.PredictedYield *= yield.PredictNormal(spec, d.FrontPerf[k], dp)
	}
	return nil
}

func meets(spec yield.Spec, offered, target float64) bool {
	if spec.Sense == yield.AtMost {
		return offered <= target
	}
	return offered >= target
}

// VariationAt returns the interpolated Δ% of performance k at value v —
// the raw $table_model(perf, "delta.tbl", "3E") lookup.
func (m *Model) VariationAt(k int, v float64) (float64, error) {
	if k < 0 || k > 1 {
		return 0, fmt.Errorf("core: performance index %d out of range", k)
	}
	return m.Delta[k].Eval(v)
}

// Domain returns the modelled range of performance 0.
func (m *Model) Domain() (lo, hi float64) { return m.Delta[0].Domain() }
