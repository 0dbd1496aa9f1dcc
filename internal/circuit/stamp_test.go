package circuit

import (
	"math"
	"testing"

	"analogyield/internal/mos"
	"analogyield/internal/num"
)

func newDCCtx(n int) *DCCtx {
	return &DCCtx{J: num.NewMatrix(n), B: make([]float64, n), X: make([]float64, n), SourceScale: 1}
}

func TestDCCtxGroundDropped(t *testing.T) {
	ctx := newDCCtx(2)
	ctx.AddJ(Ground, 0, 5)
	ctx.AddJ(0, Ground, 5)
	ctx.AddB(Ground, 5)
	for _, v := range ctx.J.Data {
		if v != 0 {
			t.Fatal("ground stamp leaked into the matrix")
		}
	}
	if ctx.B[0] != 0 {
		t.Fatal("ground stamp leaked into the RHS")
	}
}

func TestStampConductancePattern(t *testing.T) {
	ctx := newDCCtx(2)
	ctx.StampConductance(0, 1, 0.5)
	if ctx.J.At(0, 0) != 0.5 || ctx.J.At(1, 1) != 0.5 {
		t.Error("diagonal entries wrong")
	}
	if ctx.J.At(0, 1) != -0.5 || ctx.J.At(1, 0) != -0.5 {
		t.Error("off-diagonal entries wrong")
	}
}

func TestStampCurrentDirection(t *testing.T) {
	// Current from node 0 to node 1: leaves 0 (B[0] -= i), enters 1.
	ctx := newDCCtx(2)
	ctx.StampCurrent(0, 1, 1e-3)
	if ctx.B[0] != -1e-3 || ctx.B[1] != 1e-3 {
		t.Errorf("B = %v", ctx.B)
	}
}

func TestDCCtxVGround(t *testing.T) {
	ctx := newDCCtx(1)
	ctx.X[0] = 2.5
	if ctx.V(Ground) != 0 {
		t.Error("V(Ground) != 0")
	}
	if ctx.V(0) != 2.5 {
		t.Error("V(0) wrong")
	}
}

func TestSourceScaleAppliesToDC(t *testing.T) {
	ctx := newDCCtx(2)
	ctx.SourceScale = 0.5
	v := &VSource{Inst: "V1", Pos: 0, Neg: Ground, DC: 2}
	v.StampDC(ctx, 1)
	if ctx.B[1] != 1 {
		t.Errorf("scaled source RHS = %g, want 1", ctx.B[1])
	}
	i := &ISource{Inst: "I1", Pos: 0, Neg: Ground, DC: 2e-3}
	i.StampDC(ctx, 0)
	if math.Abs(ctx.B[0]+1e-3) > 1e-15 {
		t.Errorf("scaled current = %g, want -1e-3", ctx.B[0])
	}
}

func newACCtx(n int) *ACCtx {
	ctx := &ACCtx{}
	ctx.Reset(n, nil)
	return ctx
}

// assemble builds the recorded system at angular frequency omega.
func assemble(ctx *ACCtx, omega float64) (*num.CMatrix, []complex128) {
	a := num.NewCMatrix(ctx.G.N)
	b := make([]complex128, ctx.G.N)
	ctx.Assemble(omega, a, b)
	return a, b
}

func TestACCtxStampCapacitance(t *testing.T) {
	ctx := newACCtx(2)
	ctx.StampCapacitance(0, 1, 2)
	ctx.StampConductance(0, 1, 0.5)
	ctx.AddB(1, 0.25)
	a, b := assemble(ctx, 3)
	if a.At(0, 0) != complex(0.5, 6) || a.At(0, 1) != complex(-0.5, -6) {
		t.Errorf("AC admittance stamp wrong: %v", a.Data)
	}
	if b[0] != 0 || b[1] != complex(0.25, 0) {
		t.Errorf("AC stimulus wrong: %v", b)
	}
	ctx.AddG(Ground, 0, 1)
	ctx.AddC(0, Ground, 1)
	ctx.AddB(Ground, 1)
	if a2, _ := assemble(ctx, 3); a2.At(0, 0) != a.At(0, 0) {
		t.Error("ground AC stamp leaked")
	}
	// Reset reuses the buffers for a new, smaller system.
	ctx.Reset(1, nil)
	if a3, b3 := assemble(ctx, 3); a3.At(0, 0) != 0 || b3[0] != 0 || len(ctx.C) != 0 {
		t.Error("Reset left a stale recording")
	}
}

func TestACCtxVDC(t *testing.T) {
	ctx := &ACCtx{DC: []float64{1.5}}
	if ctx.VDC(Ground) != 0 || ctx.VDC(0) != 1.5 {
		t.Error("VDC wrong")
	}
}

func TestTranCtxHelpers(t *testing.T) {
	ctx := &TranCtx{
		J: num.NewMatrix(2), B: make([]float64, 2),
		X: []float64{1, 2}, XPrev: []float64{3, 4},
		Dt: 1e-9, State: map[string][]float64{},
	}
	if ctx.V(0) != 1 || ctx.VPrev(1) != 4 || ctx.V(Ground) != 0 || ctx.VPrev(Ground) != 0 {
		t.Error("Tran voltage accessors wrong")
	}
	ctx.StampConductance(0, 1, 2)
	if ctx.J.At(0, 0) != 2 || ctx.J.At(1, 0) != -2 {
		t.Error("Tran conductance stamp wrong")
	}
	ctx.StampCurrent(0, 1, 1)
	if ctx.B[0] != -1 || ctx.B[1] != 1 {
		t.Error("Tran current stamp wrong")
	}
	ctx.AddJ(Ground, 0, 9)
	ctx.AddB(Ground, 9)
}

func TestDeviceCopies(t *testing.T) {
	devs := []Device{
		&Resistor{Inst: "R", A: 0, B: 1, R: 1},
		&Capacitor{Inst: "C", A: 0, B: 1, C: 1},
		&Inductor{Inst: "L", A: 0, B: 1, L: 1},
		&VSource{Inst: "V", Pos: 0, Neg: 1, DC: 1},
		&ISource{Inst: "I", Pos: 0, Neg: 1, DC: 1},
		&VCVS{Inst: "E", OutP: 0, OutN: 1, InP: 0, InN: 1, Gain: 1},
		&VCCS{Inst: "G", OutP: 0, OutN: 1, InP: 0, InN: 1, Gm: 1},
		&MOSFET{Inst: "M", D: 0, G: 1, S: Ground, B: Ground,
			W: 1e-6, L: 1e-6, Model: mos.NominalNMOS()},
	}
	for _, d := range devs {
		c := d.Copy()
		if c == d {
			t.Errorf("%s: Copy returned the same pointer", d.Name())
		}
		if c.Name() != d.Name() {
			t.Errorf("%s: Copy changed the name", d.Name())
		}
	}
}

func TestMOSFETStampKCL(t *testing.T) {
	// The DC stamp must be charge-neutral: column sums of the drain and
	// source rows cancel, and the RHS contributions cancel.
	n := New("kcl")
	d := n.Node("d")
	g := n.Node("g")
	s := n.Node("s")
	m := &MOSFET{Inst: "M1", D: d, G: g, S: s, B: Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()}
	n.MustAdd(m)
	ctx := newDCCtx(n.NumUnknowns())
	ctx.X[g], ctx.X[d], ctx.X[s] = 1.2, 1.0, 0.2
	m.StampDC(ctx, 0)
	// Row d + row s must be zero for every column (current conservation).
	for j := 0; j < 3; j++ {
		if sum := ctx.J.At(d, j) + ctx.J.At(s, j); math.Abs(sum) > 1e-12 {
			t.Errorf("column %d: drain+source rows = %g", j, sum)
		}
	}
	if math.Abs(ctx.B[d]+ctx.B[s]) > 1e-15 {
		t.Error("RHS not charge-neutral")
	}
	// Gate row untouched (no DC gate current).
	for j := 0; j < 3; j++ {
		if ctx.J.At(g, j) != 0 {
			t.Error("gate row has DC entries")
		}
	}
}

func newTranCtx(n int) *TranCtx {
	return &TranCtx{
		J: num.NewMatrix(n), B: make([]float64, n),
		X: make([]float64, n), XPrev: make([]float64, n),
		Dt: 1e-9, State: map[string][]float64{},
	}
}

func TestVSourceTranUsesWaveform(t *testing.T) {
	v := &VSource{Inst: "V1", Pos: 0, Neg: Ground, DC: 9,
		Wave: SineWave{Offset: 1, Amp: 0}}
	ctx := newTranCtx(2)
	ctx.Time = 0.5
	v.StampTran(ctx, 1)
	if ctx.B[1] != 1 {
		t.Errorf("waveform value not used: B = %g, want 1", ctx.B[1])
	}
	// No waveform: DC value.
	v2 := &VSource{Inst: "V2", Pos: 0, Neg: Ground, DC: 9}
	ctx2 := newTranCtx(2)
	v2.StampTran(ctx2, 1)
	if ctx2.B[1] != 9 {
		t.Errorf("DC fallback not used: B = %g", ctx2.B[1])
	}
}

func TestISourceStamps(t *testing.T) {
	i := &ISource{Inst: "I1", Pos: 0, Neg: 1, DC: 2e-3, ACMag: 1e-3,
		Wave: SineWave{Offset: 5e-3}}
	// AC: magnitude into the RHS.
	ac := newACCtx(2)
	i.StampAC(ac, 0)
	if ac.B[0] != -1e-3 || ac.B[1] != 1e-3 {
		t.Errorf("AC stamp B = %v", ac.B)
	}
	// Tran: waveform value.
	tr := newTranCtx(2)
	i.StampTran(tr, 0)
	if tr.B[0] != -5e-3 || tr.B[1] != 5e-3 {
		t.Errorf("tran stamp B = %v", tr.B)
	}
}

func TestVCVSStampsAllModes(t *testing.T) {
	e := &VCVS{Inst: "E1", OutP: 0, OutN: Ground, InP: 1, InN: Ground, Gain: 4}
	dc := newDCCtx(3)
	e.StampDC(dc, 2)
	if dc.J.At(2, 1) != -4 || dc.J.At(2, 0) != 1 || dc.J.At(0, 2) != 1 {
		t.Error("VCVS DC stamp pattern wrong")
	}
	ac := newACCtx(3)
	e.StampAC(ac, 2)
	if ac.G.At(2, 1) != -4 || len(ac.C) != 0 {
		t.Error("VCVS AC stamp wrong")
	}
	tr := newTranCtx(3)
	e.StampTran(tr, 2)
	if tr.J.At(2, 1) != -4 {
		t.Error("VCVS tran stamp wrong")
	}
}

func TestVCCSStampsAllModes(t *testing.T) {
	g := &VCCS{Inst: "G1", OutP: 0, OutN: 1, InP: 1, InN: Ground, Gm: 2e-3}
	dc := newDCCtx(2)
	g.StampDC(dc, 0)
	if dc.J.At(0, 1) != 2e-3 || dc.J.At(1, 1) != -2e-3 {
		t.Error("VCCS DC stamp wrong")
	}
	ac := newACCtx(2)
	g.StampAC(ac, 0)
	if ac.G.At(0, 1) != 2e-3 || len(ac.C) != 0 {
		t.Error("VCCS AC stamp wrong")
	}
	tr := newTranCtx(2)
	g.StampTran(tr, 0)
	if tr.J.At(0, 1) != 2e-3 {
		t.Error("VCCS tran stamp wrong")
	}
}

func TestInductorStamps(t *testing.T) {
	l := &Inductor{Inst: "L1", A: 0, B: 1, L: 1e-6}
	dc := newDCCtx(3)
	l.StampDC(dc, 2)
	// DC: short — branch equation v(a) − v(b) = 0.
	if dc.J.At(2, 0) != 1 || dc.J.At(2, 1) != -1 || dc.J.At(2, 2) != 0 {
		t.Error("inductor DC stamp wrong")
	}
	ac := newACCtx(3)
	l.StampAC(ac, 2)
	if a, _ := assemble(ac, 1e6); a.At(2, 2) != complex(0, -1) {
		t.Error("inductor AC branch should have -jwL")
	}
	tr := newTranCtx(3)
	tr.XPrev[2] = 1e-3 // previous inductor current
	l.StampTran(tr, 2)
	if tr.B[2] >= 0 {
		t.Error("inductor tran companion RHS should carry previous current")
	}
}

func TestCapacitorTranState(t *testing.T) {
	c := &Capacitor{Inst: "C1", A: 0, B: Ground, C: 1e-12}
	ctx := newTranCtx(1)
	ctx.XPrev[0] = 0
	ctx.X[0] = 1 // converged new voltage
	c.StampTran(ctx, 0)
	geq := 2 * c.C / ctx.Dt
	if ctx.J.At(0, 0) != geq {
		t.Errorf("companion conductance = %g, want %g", ctx.J.At(0, 0), geq)
	}
	c.UpdateTranState(ctx)
	st, ok := ctx.State["C1"]
	if !ok || len(st) != 1 {
		t.Fatal("state not recorded")
	}
	// i = geq*(v - vPrev) - iPrev = geq*1.
	if math.Abs(st[0]-geq) > 1e-9 {
		t.Errorf("state current = %g, want %g", st[0], geq)
	}
	// Second step uses the recorded current.
	ctx2 := newTranCtx(1)
	ctx2.State = ctx.State
	ctx2.XPrev[0] = 1
	c.StampTran(ctx2, 0)
	if ctx2.B[0] == 0 {
		t.Error("previous state ignored in companion RHS")
	}
}

func TestCapacitorDCOpen(t *testing.T) {
	c := &Capacitor{Inst: "C1", A: 0, B: 1, C: 1e-12}
	dc := newDCCtx(2)
	c.StampDC(dc, 0)
	for _, v := range dc.J.Data {
		if v != 0 {
			t.Fatal("capacitor stamped at DC")
		}
	}
}

func TestMOSFETTranStampsCaps(t *testing.T) {
	n := New("mtran")
	d := n.Node("d")
	g := n.Node("g")
	m := &MOSFET{Inst: "M1", D: d, G: g, S: Ground, B: Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()}
	n.MustAdd(m)
	ctx := newTranCtx(n.NumUnknowns())
	ctx.X[g], ctx.X[d] = 1.0, 2.0
	ctx.XPrev[g], ctx.XPrev[d] = 1.0, 2.0
	m.StampTran(ctx, 0)
	// Gate row now has capacitive entries (unlike DC).
	hasGate := false
	for j := 0; j < n.NumNodes(); j++ {
		if ctx.J.At(g, j) != 0 {
			hasGate = true
		}
	}
	if !hasGate {
		t.Error("MOSFET transient stamp missing gate capacitance")
	}
}
