package analysis

import (
	"math"
	"testing"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
)

const um = 1e-6

func divider(t *testing.T) *circuit.Netlist {
	t.Helper()
	n := circuit.New("divider")
	in := n.Node("in")
	mid := n.Node("mid")
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: in, Neg: circuit.Ground, DC: 3})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: in, B: mid, R: 1e3})
	n.MustAdd(&circuit.Resistor{Inst: "R2", A: mid, B: circuit.Ground, R: 2e3})
	return n
}

func TestOPDivider(t *testing.T) {
	n := divider(t)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := op.V("mid")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-6 {
		t.Errorf("V(mid) = %g, want 2", v)
	}
	if g, _ := op.V("0"); g != 0 {
		t.Error("ground voltage should be 0")
	}
	if _, err := op.V("nope"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestOPSourceBranchCurrent(t *testing.T) {
	n := divider(t)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Branch current of V1 is the last unknown: 3V across 3k = 1 mA,
	// flowing from + through the source means the source *delivers* 1 mA,
	// so the branch current (out of +) is -1 mA by the stamp convention
	// (current enters the + node from the source).
	ib := op.X[n.NumNodes()]
	if math.Abs(math.Abs(ib)-1e-3) > 1e-9 {
		t.Errorf("|branch current| = %g, want 1 mA", math.Abs(ib))
	}
}

func TestOPCurrentSource(t *testing.T) {
	n := circuit.New("isrc")
	a := n.Node("a")
	// 1 mA pushed into node a (from ground through source into a).
	n.MustAdd(&circuit.ISource{Inst: "I1", Pos: circuit.Ground, Neg: a, DC: 1e-3})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: a, B: circuit.Ground, R: 5e3})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.V("a")
	if math.Abs(v-5) > 1e-6 {
		t.Errorf("V(a) = %g, want 5", v)
	}
}

func TestOPVCVS(t *testing.T) {
	n := circuit.New("vcvs")
	in := n.Node("in")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: in, Neg: circuit.Ground, DC: 0.5})
	n.MustAdd(&circuit.VCVS{Inst: "E1", OutP: out, OutN: circuit.Ground,
		InP: in, InN: circuit.Ground, Gain: 10})
	n.MustAdd(&circuit.Resistor{Inst: "RL", A: out, B: circuit.Ground, R: 1e3})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.V("out")
	if math.Abs(v-5) > 1e-9 {
		t.Errorf("VCVS out = %g, want 5", v)
	}
}

func TestOPVCCS(t *testing.T) {
	n := circuit.New("vccs")
	in := n.Node("in")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: in, Neg: circuit.Ground, DC: 1})
	// gm = 1 mS, current flows from ground to out (pulls out low? check sign):
	// VCCS: current Gm*(v(InP)-v(InN)) flows OutP -> OutN internally.
	n.MustAdd(&circuit.VCCS{Inst: "G1", OutP: circuit.Ground, OutN: out,
		InP: in, InN: circuit.Ground, Gm: 1e-3})
	n.MustAdd(&circuit.Resistor{Inst: "RL", A: out, B: circuit.Ground, R: 2e3})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.V("out")
	// 1 mA pushed into out through 2k => +2 V.
	if math.Abs(v-2) > 1e-6 {
		t.Errorf("VCCS out = %g, want 2", v)
	}
}

func TestOPDiodeConnectedNMOS(t *testing.T) {
	// Current-source-fed diode-connected NMOS: V(gate)=V(drain) settles
	// near vth + vov.
	n := circuit.New("diode")
	d := n.Node("d")
	n.MustAdd(&circuit.ISource{Inst: "I1", Pos: circuit.Ground, Neg: d, DC: 20e-6})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: d, S: circuit.Ground, B: circuit.Ground,
		W: 10 * um, L: 1 * um, Model: mos.NominalNMOS()})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.V("d")
	if v < 0.5 || v > 1.2 {
		t.Errorf("diode-connected NMOS V = %g, want vth+vov in (0.5, 1.2)", v)
	}
	// Check the device current at the solution matches the source.
	dev := DeviceReport(n, op)[0]
	if math.Abs(dev.ID-20e-6)/20e-6 > 0.01 {
		t.Errorf("device current %g, want 20 µA", dev.ID)
	}
}

func TestOPCommonSourceAmp(t *testing.T) {
	// NMOS common-source with resistive load; verify a sane bias point.
	n := circuit.New("cs")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d := n.Node("d")
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0.75})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: 50e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10 * um, L: 1 * um, Model: mos.NominalNMOS()})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	vd, _ := op.V("d")
	if vd <= 0.2 || vd >= 3.2 {
		t.Errorf("drain bias = %g, want inside the supply range", vd)
	}
}

func TestOPPMOSMirror(t *testing.T) {
	// PMOS current mirror from VDD: reference 20 µA, mirror into a
	// resistor; the output current should track the reference.
	n := circuit.New("pmirror")
	vdd := n.Node("vdd")
	ref := n.Node("ref")
	out := n.Node("out")
	pm := mos.NominalPMOS()
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.MOSFET{Inst: "MP1", D: ref, G: ref, S: vdd, B: vdd,
		W: 20 * um, L: 4 * um, Model: pm})
	n.MustAdd(&circuit.MOSFET{Inst: "MP2", D: out, G: ref, S: vdd, B: vdd,
		W: 20 * um, L: 4 * um, Model: pm})
	n.MustAdd(&circuit.ISource{Inst: "IREF", Pos: ref, Neg: circuit.Ground, DC: 20e-6})
	n.MustAdd(&circuit.Resistor{Inst: "RL", A: out, B: circuit.Ground, R: 10e3})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	vout, _ := op.V("out")
	iout := vout / 10e3
	if math.Abs(iout-20e-6)/20e-6 > 0.15 {
		t.Errorf("mirrored current = %g, want ~20 µA (±15%%)", iout)
	}
}

func TestDCSweepNMOSTransfer(t *testing.T) {
	n := circuit.New("sweep")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d := n.Node("d")
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: 20e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10 * um, L: 1 * um, Model: mos.NominalNMOS()})
	pts, err := DCSweep(n, "VG", []float64{0.2, 0.5, 0.8, 1.1, 1.4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d sweep points", len(pts))
	}
	// Drain voltage must fall monotonically as the gate rises.
	prev := math.Inf(1)
	for _, p := range pts {
		vd, _ := p.OP.V("d")
		if vd >= prev {
			t.Errorf("V(d) not monotone at VG=%g: %g >= %g", p.Value, vd, prev)
		}
		prev = vd
	}
	// VG restored after sweep.
	if vg := n.Device("VG").(*circuit.VSource).DC; vg != 0 {
		t.Errorf("sweep did not restore source: %g", vg)
	}
}

func TestDCSweepRejectsNonSource(t *testing.T) {
	n := divider(t)
	if _, err := DCSweep(n, "R1", []float64{1}, nil); err == nil {
		t.Fatal("sweeping a resistor accepted")
	}
}

func TestOPOptionsValidation(t *testing.T) {
	n := divider(t)
	if _, err := OP(n, &OPOptions{X0: []float64{0}}); err == nil {
		t.Fatal("wrong-length X0 accepted")
	}
}

func TestOPWarmStart(t *testing.T) {
	n := divider(t)
	op1, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := OP(n, &OPOptions{X0: op1.X})
	if err != nil {
		t.Fatal(err)
	}
	if op2.Iterations > op1.Iterations {
		t.Errorf("warm start took more iterations (%d) than cold (%d)",
			op2.Iterations, op1.Iterations)
	}
}
