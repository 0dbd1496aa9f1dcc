package circuit

import (
	"testing"

	"analogyield/internal/mos"
)

func TestNodeInterning(t *testing.T) {
	n := New("t")
	a := n.Node("a")
	b := n.Node("b")
	if a == b {
		t.Error("distinct names must get distinct indices")
	}
	if n.Node("a") != a {
		t.Error("re-interning changed the index")
	}
	if n.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", n.NumNodes())
	}
}

func TestGroundAliases(t *testing.T) {
	n := New("t")
	for _, g := range []string{"0", "gnd", "GND", "ground", "Gnd"} {
		if n.Node(g) != Ground {
			t.Errorf("Node(%q) should be Ground", g)
		}
	}
	if n.NumNodes() != 0 {
		t.Error("ground aliases must not create nodes")
	}
	if n.NodeName(Ground) != "0" {
		t.Error("NodeName(Ground) should be 0")
	}
}

func TestNodeIndexLookup(t *testing.T) {
	n := New("t")
	n.Node("x")
	if _, ok := n.NodeIndex("x"); !ok {
		t.Error("NodeIndex should find existing node")
	}
	if _, ok := n.NodeIndex("missing"); ok {
		t.Error("NodeIndex should not create nodes")
	}
	if idx, ok := n.NodeIndex("0"); !ok || idx != Ground {
		t.Error("NodeIndex of ground alias")
	}
}

func TestAddDuplicateDevice(t *testing.T) {
	n := New("t")
	a := n.Node("a")
	if err := n.Add(&Resistor{Inst: "R1", A: a, B: Ground, R: 1e3}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(&Resistor{Inst: "R1", A: a, B: Ground, R: 2e3}); err == nil {
		t.Fatal("duplicate device name accepted")
	}
	if err := n.Add(&Resistor{Inst: "", A: a, B: Ground, R: 2e3}); err == nil {
		t.Fatal("empty device name accepted")
	}
}

func TestBranchAllocation(t *testing.T) {
	n := New("t")
	a, b := n.Node("a"), n.Node("b")
	n.MustAdd(&VSource{Inst: "V1", Pos: a, Neg: Ground, DC: 1})
	n.MustAdd(&Resistor{Inst: "R1", A: a, B: b, R: 1e3})
	n.MustAdd(&VSource{Inst: "V2", Pos: b, Neg: Ground, DC: 2})
	if n.NumBranches() != 2 {
		t.Fatalf("NumBranches = %d, want 2", n.NumBranches())
	}
	if n.NumUnknowns() != 4 {
		t.Fatalf("NumUnknowns = %d, want 4", n.NumUnknowns())
	}
	// V1's branch must come after all nodes.
	if got := n.BranchBase(0); got != 2 {
		t.Errorf("BranchBase(V1) = %d, want 2", got)
	}
	if got := n.BranchBase(2); got != 3 {
		t.Errorf("BranchBase(V2) = %d, want 3", got)
	}
}

func TestBranchBaseAfterLateNodes(t *testing.T) {
	// Interning nodes after adding a branch device must shift bases.
	n := New("t")
	a := n.Node("a")
	n.MustAdd(&VSource{Inst: "V1", Pos: a, Neg: Ground, DC: 1})
	n.Node("late1")
	n.Node("late2")
	if got := n.BranchBase(0); got != 3 {
		t.Errorf("BranchBase after late nodes = %d, want 3", got)
	}
}

// TestBranchBaseIndices: each device's branch unknowns follow the
// nodes and the branches of the devices added before it, so a node
// interned after the adds shifts every base by one.
func TestBranchBaseIndices(t *testing.T) {
	n := New("t")
	a := n.Node("a")
	n.MustAdd(&VSource{Inst: "V1", Pos: a, Neg: Ground, DC: 1})
	n.MustAdd(&Resistor{Inst: "R1", A: a, B: Ground, R: 1e3})
	b := n.Node("b")
	n.MustAdd(&VCVS{Inst: "E1", OutP: b, OutN: Ground, InP: a, InN: Ground, Gain: 2})
	n.MustAdd(&VSource{Inst: "V2", Pos: b, Neg: Ground, DC: 1})
	check := func(when string, want ...int) {
		t.Helper()
		for i, w := range want {
			if got := n.BranchBase(i); got != w {
				t.Errorf("%s: BranchBase(%d) = %d, want %d", when, i, got, w)
			}
		}
		if got, w := n.NumUnknowns(), n.NumNodes()+3; got != w {
			t.Errorf("%s: %d unknowns, want %d", when, got, w)
		}
	}
	// Two nodes, then V1's branch, E1's and V2's; R1 has none.
	check("two nodes", 2, 3, 3, 4)
	n.Node("late")
	check("a late node", 3, 4, 4, 5)
	n.Node("a") // already interned: nothing moves
	check("a known node", 3, 4, 4, 5)
}

func TestDeviceLookup(t *testing.T) {
	n := New("t")
	a := n.Node("a")
	n.MustAdd(&Capacitor{Inst: "C1", A: a, B: Ground, C: 1e-12})
	if n.Device("C1") == nil {
		t.Error("Device(C1) not found")
	}
	if n.Device("C2") != nil {
		t.Error("Device(C2) should be nil")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := New("t")
	a := n.Node("a")
	m := &MOSFET{Inst: "M1", D: a, G: a, S: Ground, B: Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()}
	n.MustAdd(m)
	c := n.Clone()
	cm := c.Device("M1").(*MOSFET)
	cm.Model.VTO = 99
	if m.Model.VTO == 99 {
		t.Error("Clone shares MOSFET model with original")
	}
	if c.NumNodes() != n.NumNodes() {
		t.Error("Clone lost nodes")
	}
}

func TestStatsMentionsCounts(t *testing.T) {
	n := New("amp")
	a := n.Node("a")
	n.MustAdd(&MOSFET{Inst: "M1", D: a, G: a, S: Ground, B: Ground,
		W: 1e-6, L: 1e-6, Model: mos.NominalNMOS()})
	s := n.Stats()
	if s == "" {
		t.Error("Stats empty")
	}
}

func TestWaveforms(t *testing.T) {
	s := SineWave{Offset: 1, Amp: 2, Freq: 1}
	if got := s.At(0); got != 1 {
		t.Errorf("sine at 0 = %g, want offset 1", got)
	}
	if got := s.At(0.25); got < 2.9 {
		t.Errorf("sine at quarter period = %g, want ~3", got)
	}
	p := PulseWave{V1: 0, V2: 5, Delay: 1e-9, Rise: 1e-9, Fall: 1e-9, Width: 5e-9, Period: 20e-9}
	if p.At(0) != 0 {
		t.Error("pulse before delay should be V1")
	}
	if p.At(3e-9) != 5 {
		t.Error("pulse plateau should be V2")
	}
	if p.At(2.5e-10+1e-9) == 5 {
		t.Error("pulse mid-rise should be between levels")
	}
	if p.At(15e-9) != 0 {
		t.Error("pulse after fall should be V1")
	}
	// Periodic repeat.
	if p.At(23e-9) != 5 {
		t.Error("pulse second period plateau should be V2")
	}
}
