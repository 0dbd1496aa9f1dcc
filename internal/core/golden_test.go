package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"analogyield/internal/behave"
	"analogyield/internal/core"
	"analogyield/internal/yield"
)

var updateDesignGolden = flag.Bool("update", false, "rewrite testdata/design_golden.txt from the current code")

const designGoldenFile = "testdata/design_golden.txt"

// goldenFront is one model the design golden pins.
type goldenFront struct {
	name       string
	points     []core.ParetoPoint
	objs       []string
	params     []string
	units      []string
	maxPoints  int
	sweepShape bool // also run the server's sweep (tuned to perf0 ∈ [45, 55])
}

// synthPoints is the analytic front the server tests build as
// synthModel(n): perf1 = 85 − 1.2·(perf0 − 45) over perf0 ∈ [45, 55].
func synthPoints(n int) []core.ParetoPoint {
	pts := make([]core.ParetoPoint, n)
	for i := range pts {
		x := float64(i) / float64(n-1)
		pts[i] = core.ParetoPoint{
			Params:   []float64{10 + 50*x, 10, 10},
			Perf:     [2]float64{45 + 10*x, 85 - 12*x},
			DeltaPct: [2]float64{1.0 + 0.2*x, 0.5 + 0.1*x},
		}
	}
	return pts
}

// overflowFront has a negative perf1 axis (−2 → −5) with Δ% = (0, 2):
// a huge finite guard scale overflows the "b <= -3" target to +Inf.
func overflowFront() []core.ParetoPoint {
	pts := make([]core.ParetoPoint, 12)
	for i := range pts {
		x := float64(i) / float64(len(pts)-1)
		pts[i] = core.ParetoPoint{
			Params:   []float64{1 + 9*x},
			Perf:     [2]float64{10 + 10*x, -2 - 3*x},
			DeltaPct: [2]float64{0, 2},
		}
	}
	return pts
}

// kneeFront is an 8-parameter front whose samples crowd a sharp knee
// in the middle and thin out towards both tails, with parameter shapes
// that are monotone, non-monotone, flat and step-like, so PCHIP's
// flat-spot and end-slope cases and the parameter clamp all occur.
func kneeFront() []core.ParetoPoint {
	const n = 48
	pts := make([]core.ParetoPoint, n)
	for i := range pts {
		t := 2*float64(i)/float64(n-1) - 1
		s := 0.5 + 0.5*math.Copysign(math.Pow(math.Abs(t), 3), t)
		p0 := 40 + 20*s
		p1 := 60 + 25/(1+math.Exp(1.5*(p0-50)))
		pts[i] = core.ParetoPoint{
			Perf:     [2]float64{p0, p1},
			DeltaPct: [2]float64{0.4 + 0.02*(p0-40) + 0.1*math.Sin(p0), 0.8 + 0.3*math.Cos(0.3*p0)},
			Params: []float64{
				2 + 0.5*(p0-40),
				5 + 0.04*(p0-50)*(p0-50),
				1 + math.Exp(0.1*(p0-40)),
				3 + 2*math.Sin(0.7*p0),
				0.5 + math.Tanh(2*(p0-50)),
				7,
				30 - 0.8*(p0-40),
				4 + 0.3*math.Sin(float64(i*i)),
			},
		}
	}
	return pts
}

// edgeFront's two highest perf1 values lie closer than BuildModel's
// merge distance, so the perf1 variation table ends just below the
// front's first point: a design in the first front segment sits outside
// that table, and the predicted yield falls back to the spec-bound Δ%.
func edgeFront() []core.ParetoPoint {
	pts := make([]core.ParetoPoint, 12)
	for i := range pts {
		p1 := 85 - 1.2*float64(i)
		switch i {
		case 0:
			p1 = 85
		case 1:
			p1 = 85 - 5e-7
		}
		pts[i] = core.ParetoPoint{
			Params:   []float64{2 + float64(i*i)/10, 7 - 0.3*float64(i)},
			Perf:     [2]float64{10 + float64(i), p1},
			DeltaPct: [2]float64{0.5, 1 + 0.1*float64(i)},
		}
	}
	return pts
}

func goldenFronts() []goldenFront {
	ota := []string{"gain_db", "pm_deg"}
	return []goldenFront{
		{"synth12", synthPoints(12), ota, []string{"P1", "P2", "P3"}, []string{"um", "um", "um"}, 0, true},
		{"overflow", overflowFront(), []string{"a", "b"}, []string{"P1"}, []string{"um"}, 0, true},
		{"front64", synthPoints(64), ota, []string{"P1", "P2", "P3"}, []string{"um", "um", "um"}, 0, true},
		{"knee8", kneeFront(), ota,
			[]string{"W1", "W2", "L1", "W3", "Ib", "L2", "W4", "Cc"},
			[]string{"um", "um", "um", "um", "uA", "um", "um", "pF"}, 40, false},
		{"edge12", edgeFront(), ota, []string{"W1", "L1"}, []string{"um", "um"}, 0, false},
	}
}

// designQuery is one Table 3 query: two specs and a guard-band scale.
type designQuery struct {
	spec0, spec1 yield.Spec
	scale        float64
}

// sweepQueries is the server's golden sweep (sweepRequests) in core
// terms: in-domain, boundary, out-of-range and infeasible spec pairs,
// both senses on perf1, guard scales around 1 (a request's 0 is 1).
// The server's bad-sense request never reaches core and is left out.
func sweepQueries(names []string) []designQuery {
	var qs []designQuery
	rng := rand.New(rand.NewSource(41))
	add := func(b0, b1, scale float64, sense1 yield.Sense) {
		if scale == 0 {
			scale = 1
		}
		qs = append(qs, designQuery{
			yield.Spec{Name: names[0], Sense: yield.AtLeast, Bound: b0},
			yield.Spec{Name: names[1], Sense: sense1, Bound: b1},
			scale,
		})
	}
	for i := 0; i < 160; i++ {
		b0 := 45.5 + 7*rng.Float64()
		b1 := 71 + 4*rng.Float64()
		scale := 0.0
		switch i % 4 {
		case 1:
			scale = 0.5 + rng.Float64()
		case 2:
			scale = 3
		case 3:
			b0 = 44 + 13*rng.Float64()
			b1 = 60 + 40*rng.Float64()
		}
		sense1 := yield.AtLeast
		if i%7 == 0 {
			sense1 = yield.AtMost
		}
		add(b0, b1, scale, sense1)
	}
	add(45, 73, 0, yield.AtLeast)
	add(55, 73, 0, yield.AtLeast)
	add(50, 79, 0, yield.AtLeast)
	add(46, 74, 0, yield.AtLeast)
	add(50, 76, -1, yield.AtLeast)
	add(1e6, 76, 0, yield.AtLeast)
	add(50, -1e6, 0, yield.AtMost)
	return qs
}

// domainQueries spreads queries over one model's own modelled ranges
// (and a margin outside them), with both senses on both specs, guard
// scales from 0.5 to 3, and the huge scales that overflow a target.
func domainQueries(m *core.Model) []designQuery {
	lo0, hi0 := m.Domain()
	lo1, hi1 := m.Delta[1].Domain()
	w0, w1 := hi0-lo0, hi1-lo1
	rng := rand.New(rand.NewSource(43))
	sense := func(i int) yield.Sense {
		if i%5 == 0 {
			return yield.AtMost
		}
		return yield.AtLeast
	}
	var qs []designQuery
	for i := 0; i < 240; i++ {
		scale := 1.0
		switch i % 6 {
		case 1:
			scale = 0.5 + rng.Float64()
		case 2:
			scale = 3
		case 3:
			scale = 0.1
		}
		qs = append(qs, designQuery{
			yield.Spec{Name: m.ObjectiveNames[0], Sense: sense(i / 3), Bound: lo0 - 0.05*w0 + 1.1*w0*rng.Float64()},
			yield.Spec{Name: m.ObjectiveNames[1], Sense: sense(i), Bound: lo1 - 0.1*w1 + 1.2*w1*rng.Float64()},
			scale,
		})
	}
	// Knots and domain edges, and guard scales that overflow a target.
	for i, p := range m.Points {
		if i%5 != 0 && i != len(m.Points)-1 {
			continue
		}
		qs = append(qs, designQuery{
			yield.Spec{Name: m.ObjectiveNames[0], Bound: p.Perf[0]},
			yield.Spec{Name: m.ObjectiveNames[1], Bound: lo1},
			1,
		})
	}
	for _, scale := range []float64{1e308, math.MaxFloat64, 5e307, math.SmallestNonzeroFloat64} {
		mid0 := lo0 + 0.5*w0
		qs = append(qs,
			designQuery{yield.Spec{Name: m.ObjectiveNames[0], Bound: mid0},
				yield.Spec{Name: m.ObjectiveNames[1], Sense: yield.AtMost, Bound: lo1 + 0.5*w1}, scale},
			designQuery{yield.Spec{Name: m.ObjectiveNames[0], Sense: yield.AtMost, Bound: mid0},
				yield.Spec{Name: m.ObjectiveNames[1], Bound: lo1}, scale})
	}
	return qs
}

// model builds the front's model.
func (f goldenFront) model(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.BuildModel(f.points, f.objs, f.params, f.units, core.ModelOptions{MaxTablePoints: f.maxPoints})
	if err != nil {
		t.Fatalf("%s: BuildModel: %v", f.name, err)
	}
	return m
}

// queries is the golden's query list for the front's model m.
func (f goldenFront) queries(m *core.Model) []designQuery {
	qs := domainQueries(m)
	if f.sweepShape {
		qs = append(sweepQueries(f.objs), qs...)
	}
	return qs
}

// designRecord is one query's golden line: the Float64bits of every
// Design field and the predicted yield, or the error text.
func designRecord(d *core.Design, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	v := []string{
		bits(d.DeltaPct[0]), bits(d.DeltaPct[1]), bits(d.Target[0]), bits(d.Target[1]),
		bits(d.FrontPerf[0]), bits(d.FrontPerf[1]), bits(d.CurveParam), bits(d.PredictedYield),
	}
	for _, x := range d.Params {
		v = append(v, bits(x))
	}
	return "design " + strings.Join(v, " ")
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// readDesignGolden returns the lines of the design golden file.
func readDesignGolden(t *testing.T) []string {
	t.Helper()
	fh, err := os.Open(filepath.FromSlash(designGoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var lines []string
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestDesignGolden pins the Table 3 query to the Float64bits recorded in
// testdata: every Design field and the predicted yield of each answered
// query, the text of each refused one, and the bytes of every artefact
// the model writes (EncodeModel, Save's .tbl files, the Verilog-A
// module), over five fronts. Never regenerate it (-update) for a change
// that is meant to keep the numerics.
func TestDesignGolden(t *testing.T) {
	var lines []string
	add := func(format string, a ...any) { lines = append(lines, fmt.Sprintf(format, a...)) }
	for _, f := range goldenFronts() {
		m := f.model(t)
		qs := f.queries(m)
		// The test-only reference (oracle_test.go) and DesignInto on one
		// scratch across the whole sweep, whose segment hints carry from
		// query to query, must both give DesignForScaled's answer.
		ref := newRefModel(t, m)
		var sc core.DesignScratch
		answered := 0
		for i, q := range qs {
			d, err := m.DesignForScaled(q.spec0, q.spec1, q.scale)
			if err == nil {
				answered++
			}
			line := designRecord(d, err)
			var warm core.Design
			if err := m.DesignInto(&warm, q.spec0, q.spec1, q.scale, &sc); designRecord(&warm, err) != line {
				t.Errorf("%s q%d: DesignInto %s, DesignForScaled %s", f.name, i, designRecord(&warm, err), line)
			}
			if rd, err := ref.design(q.spec0, q.spec1, q.scale); designRecord(rd, err) != line {
				t.Errorf("%s q%d: reference %s, DesignForScaled %s", f.name, i, designRecord(rd, err), line)
			}
			add("%s/q%03d %s", f.name, i, line)
		}
		if answered < 20 {
			t.Fatalf("%s: only %d of %d queries answered; the sweep proves too little", f.name, answered, len(qs))
		}

		data, err := core.EncodeModel(m)
		if err != nil {
			t.Fatal(err)
		}
		add("%s encode %s", f.name, sha(data))
		dir := t.TempDir()
		if err := m.Save(dir); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, path := range files {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			add("%s save %s %s", f.name, filepath.Base(path), sha(b))
		}
		add("%s veriloga %s", f.name, sha([]byte(behave.GenerateVerilogA(m, behave.VAOptions{}))))
	}

	path := filepath.FromSlash(designGoldenFile)
	if *updateDesignGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDesignGolden(t)
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the test records %d", designGoldenFile, len(want), len(lines))
	}
	bad := 0
	for i, got := range lines {
		if got != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("golden mismatch:\n got  %s\n want %s", got, want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d mismatched lines in all", bad)
	}
}
