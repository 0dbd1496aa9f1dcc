package behave

import (
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/core"
	"analogyield/internal/measure"
	"analogyield/internal/ota"
)

// ampBench builds: VIN → behavioural Amp → CL, mirroring the paper's
// open-loop testbench with the Verilog-A module in place of transistors.
func ampBench(gainDB, ro, cl float64) *circuit.Netlist {
	n := circuit.New("behavioural amp bench")
	in := n.Node("in")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: circuit.Ground, DC: 0, ACMag: 1})
	n.MustAdd(&Amp{Inst: "X1", InP: in, InN: circuit.Ground, Out: out,
		GainDB: gainDB, Ro: ro, Invert: true})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: circuit.Ground, C: cl})
	return n
}

func TestAmpDCGain(t *testing.T) {
	n := ampBench(50, 100e3, 10e-12)
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.AC(n, op, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := ac.V("out")
	if g := measure.GainDB(tf[0]); math.Abs(g-50) > 0.01 {
		t.Errorf("behavioural gain = %g dB, want 50", g)
	}
	// Inverting: phase ±180 at DC.
	if ph := math.Abs(measure.PhaseDeg(tf[0])); math.Abs(ph-180) > 1 {
		t.Errorf("phase = %g, want ±180 (inverting)", ph)
	}
}

func TestAmpNonInverting(t *testing.T) {
	n := circuit.New("noninv")
	in := n.Node("in")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: circuit.Ground, DC: 0.001})
	n.MustAdd(&Amp{Inst: "X1", InP: in, InN: circuit.Ground, Out: out,
		GainDB: 40, Ro: 1e3, Invert: false})
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.V("out")
	if math.Abs(v-0.1) > 1e-4 {
		t.Errorf("V(out) = %g, want 0.1 (gain 100)", v)
	}
}

func TestAmpDominantPole(t *testing.T) {
	// The paper's model: finite gain + ro; loaded by CL this gives a
	// pole at 1/(2π·ro·CL).
	ro, cl := 100e3, 10e-12
	fp := 1 / (2 * math.Pi * ro * cl)
	n := ampBench(50, ro, cl)
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.AC(n, op, []float64{fp / 100, fp})
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := ac.V("out")
	drop := measure.GainDB(tf[0]) - measure.GainDB(tf[1])
	if math.Abs(drop-3.0103) > 0.1 {
		t.Errorf("gain drop at pole = %g dB, want 3", drop)
	}
}

func TestAmpLoadedGainDivision(t *testing.T) {
	// With a resistive load equal to Ro, the output divides by 2.
	n := ampBench(40, 50e3, 1e-15)
	out, _ := n.NodeIndex("out")
	n.MustAdd(&circuit.Resistor{Inst: "RL", A: out, B: circuit.Ground, R: 50e3})
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.AC(n, op, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := ac.V("out")
	want := 100.0 / 2
	if got := cmplx.Abs(tf[0]); math.Abs(got-want)/want > 0.01 {
		t.Errorf("loaded gain = %g, want %g", got, want)
	}
}

func TestOTATransconductor(t *testing.T) {
	// gm cell into a load resistor: gain = gm·(RL ∥ Ro).
	n := circuit.New("gmcell")
	in := n.Node("in")
	out := n.Node("out")
	gm, ro, rl := 1e-3, 1e6, 10e3
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: circuit.Ground, ACMag: 1})
	n.MustAdd(&OTA{Inst: "G1", InP: in, InN: circuit.Ground, Out: out, Gm: gm, Ro: ro})
	n.MustAdd(&circuit.Resistor{Inst: "RL", A: out, B: circuit.Ground, R: rl})
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.AC(n, op, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := ac.V("out")
	want := gm * (rl * ro / (rl + ro))
	if got := cmplx.Abs(tf[0]); math.Abs(got-want)/want > 0.01 {
		t.Errorf("gm-cell gain = %g, want %g", got, want)
	}
}

func TestOTAEquivalentToAmp(t *testing.T) {
	// K = Gm·Ro: the two behavioural forms must agree when unloaded.
	gm, ro := 1e-4, 1e6
	gainDB := 20 * math.Log10(gm*ro)

	build := func(dev circuit.Device) complex128 {
		n := circuit.New("x")
		in := n.Node("in")
		out := n.Node("out")
		n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: circuit.Ground, ACMag: 1})
		switch d := dev.(type) {
		case *Amp:
			d.InP, d.InN, d.Out = in, circuit.Ground, out
			n.MustAdd(d)
		case *OTA:
			d.InP, d.InN, d.Out = in, circuit.Ground, out
			n.MustAdd(d)
		}
		n.MustAdd(&circuit.Resistor{Inst: "RB", A: out, B: circuit.Ground, R: 1e12})
		op, err := analysis.OP(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := analysis.AC(n, op, []float64{10})
		if err != nil {
			t.Fatal(err)
		}
		tf, _ := ac.V("out")
		return tf[0]
	}
	a := build(&Amp{Inst: "X", GainDB: gainDB, Ro: ro})
	o := build(&OTA{Inst: "X", Gm: gm, Ro: ro})
	if math.Abs(cmplx.Abs(a)-cmplx.Abs(o))/cmplx.Abs(a) > 1e-6 {
		t.Errorf("Amp |H| = %g, OTA |H| = %g", cmplx.Abs(a), cmplx.Abs(o))
	}
}

func TestFromPerf(t *testing.T) {
	perf := ota.Perf{GainDB: 50, UnityHz: 3.5e6}
	cl := 10e-12
	gm, ro := FromPerf(perf, cl)
	wantGm := 2 * math.Pi * 3.5e6 * cl
	if math.Abs(gm-wantGm)/wantGm > 1e-9 {
		t.Errorf("gm = %g, want %g", gm, wantGm)
	}
	a := math.Pow(10, 2.5)
	if math.Abs(gm*ro-a)/a > 1e-9 {
		t.Errorf("gm·ro = %g, want %g", gm*ro, a)
	}
}

func modelForVA(t *testing.T) *core.Model {
	t.Helper()
	var pts []core.ParetoPoint
	for i := 0; i < 10; i++ {
		pts = append(pts, core.ParetoPoint{
			Params:   []float64{10 + float64(i), 1 + 0.1*float64(i), 20 - float64(i), 2},
			Perf:     [2]float64{49 + 0.3*float64(i), 77 - 0.4*float64(i)},
			DeltaPct: [2]float64{0.5, 1.6},
		})
	}
	m, err := core.BuildModel(pts, []string{"gain_db", "pm_deg"},
		[]string{"W1", "L1", "W2", "L2"}, []string{"um", "um", "um", "um"},
		core.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateVerilogA(t *testing.T) {
	m := modelForVA(t)
	va := GenerateVerilogA(m, VAOptions{})
	// Structure of the paper's listing.
	for _, want := range []string{
		"module ota_behav",
		`$table_model(gain, "gain_delta.tbl", "3E")`,
		`$table_model(pm, "pm_delta.tbl", "3E")`,
		"gain_prop = ((gain_delta/100)*gain)+gain",
		`"lp1_data.tbl", "3E,3E"`,
		`"lp4_data.tbl", "3E,3E"`,
		`$fopen("params.dat")`,
		"gain_in_v = pow(10, gain_prop/20)",
		"V(out) <+ V(inp)*(-gain_in_v) - I(out)*ro;",
		"endmodule",
	} {
		if !strings.Contains(va, want) {
			t.Errorf("generated Verilog-A missing %q", want)
		}
	}
	// One lp table per parameter.
	if strings.Count(va, "lp") < 4 {
		t.Error("missing parameter tables")
	}
}

func TestGenerateVerilogAOptions(t *testing.T) {
	m := modelForVA(t)
	va := GenerateVerilogA(m, VAOptions{ModuleName: "my_ota", Control: "1L", ParamsFile: "out.dat"})
	if !strings.Contains(va, "module my_ota") {
		t.Error("module name option ignored")
	}
	if !strings.Contains(va, `"1L,1L"`) || !strings.Contains(va, `"1L")`) {
		t.Error("control option ignored")
	}
	if !strings.Contains(va, `$fopen("out.dat")`) {
		t.Error("params file option ignored")
	}
}

// TestVerilogAReadsSavedTables: every .tbl file the emitted module reads
// exists in the directory Model.Save wrote, for objective names with and
// without a unit suffix.
func TestVerilogAReadsSavedTables(t *testing.T) {
	for _, objs := range [][]string{{"gain_db", "pm_deg"}, {"a", "b_hz"}} {
		m := modelForVA(t)
		m.ObjectiveNames = objs
		dir := t.TempDir()
		if err := m.Save(dir); err != nil {
			t.Fatal(err)
		}
		reads := regexp.MustCompile(`\$table_model\([^)]*"([^"]+\.tbl)"`).FindAllStringSubmatch(GenerateVerilogA(m, VAOptions{}), -1)
		if want := 2 + len(m.ParamNames); len(reads) != want {
			t.Fatalf("%v: module reads %d tables, want %d", objs, len(reads), want)
		}
		for _, r := range reads {
			if _, err := os.Stat(filepath.Join(dir, r[1])); err != nil {
				t.Errorf("%v: module reads %s, which Save did not write: %v", objs, r[1], err)
			}
		}
	}
}
