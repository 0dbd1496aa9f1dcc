package analysis

import (
	"math"
	"testing"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
)

// sampledAmp is a common-source stage whose transistor threshold is
// moved by dvth and whose transconductance is scaled by 1+dbeta: one
// statistical sample of the design (dvth = dbeta = 0 is the nominal).
func sampledAmp(dvth, dbeta float64) *circuit.Netlist {
	n := circuit.New("sampled cs amp")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d := n.Node("d")
	m := mos.NominalNMOS()
	m.VTO += dvth
	m.KP *= 1 + dbeta
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0.8, ACMag: 1})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: 20e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10e-6, L: 1e-6, Model: m})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: d, B: circuit.Ground, C: 1e-12})
	return n
}

func nominalAmp() *circuit.Netlist { return sampledAmp(0, 0) }

// sameOP reports whether two operating points are equal bit for bit,
// iteration count included.
func sameOP(a, b *OPResult) bool {
	if a.Iterations != b.Iterations || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestSampleOPWarmStart: a sample started from its design's nominal
// operating point converges to the zero start's solution in fewer
// iterations, and the nominal solve is memoised once per design.
func TestSampleOPWarmStart(t *testing.T) {
	ws := NewWorkspace()
	shifts := [][2]float64{{0.01, 0.02}, {-0.015, -0.03}, {0.004, 0.05}, {-0.02, 0.01}}
	for _, sh := range shifts {
		n := sampledAmp(sh[0], sh[1])
		warm, err := SampleOP(n, "amp", nominalAmp, ws)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := OP(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold.X {
			if d := math.Abs(warm.X[i] - cold.X[i]); d > 1e-9 {
				t.Errorf("shift %v: X[%d] warm %g, cold %g", sh, i, warm.X[i], cold.X[i])
			}
		}
		if warm.Iterations >= cold.Iterations {
			t.Errorf("shift %v: warm start took %d iterations, cold %d", sh, warm.Iterations, cold.Iterations)
		}
	}
	st := ws.Stats()
	if st.Solves != 1+len(shifts) || st.WarmFallbacks != 0 {
		t.Errorf("stats %+v: want %d solves (one nominal) and no fallbacks", st, 1+len(shifts))
	}
	if st.Iterations <= st.Solves {
		t.Errorf("stats %+v: want more iterations than solves", st)
	}
}

// TestSampleOPFallbackBitIdentical: when Newton from the memoised start
// fails (a poisoned or far-off start), or no start fits the netlist,
// the result is exactly OP's from the zero start.
func TestSampleOPFallbackBitIdentical(t *testing.T) {
	n := sampledAmp(0.01, -0.02)
	want, err := OP(n, &OPOptions{WS: NewWorkspace()})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(v float64) []float64 {
		x := make([]float64, n.NumUnknowns())
		for i := range x {
			x[i] = v
		}
		return x
	}
	for name, start := range map[string][]float64{
		"nan":   fill(math.NaN()),
		"far":   fill(1e4),
		"short": fill(0)[:1],
	} {
		ws := NewWorkspace()
		ws.nomKey, ws.nomX = "amp", start
		got, err := SampleOP(n, "amp", func() *circuit.Netlist {
			t.Fatal("memoised design re-solved")
			return nil
		}, ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameOP(got, want) {
			t.Errorf("%s: fallback X %v (%d iters), want OP's %v (%d iters)",
				name, got.X, got.Iterations, want.X, want.Iterations)
		}
		if st := ws.Stats(); st.WarmFallbacks != 1 || st.Solves != 1 {
			t.Errorf("%s: stats %+v, want one solve and one fallback", name, st)
		}
	}
}

// TestSampleOPStartIsPureFunctionOfDesign: the start depends only on
// the key's design, so a workspace that solved other designs (or other
// samples) in between returns the same bits as a fresh one.
func TestSampleOPStartIsPureFunctionOfDesign(t *testing.T) {
	other := func() *circuit.Netlist { return sampledAmp(0.05, 0.1) }
	shared := NewWorkspace()
	for round := 0; round < 2; round++ {
		for _, sh := range [][2]float64{{0.01, 0.02}, {-0.01, 0.03}} {
			n := sampledAmp(sh[0], sh[1])
			got, err := SampleOP(n, "amp", nominalAmp, shared)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SampleOP(n, "amp", nominalAmp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOP(got, want) {
				t.Fatalf("round %d shift %v: shared workspace %v, fresh %v", round, sh, got.X, want.X)
			}
			if _, err := SampleOP(sampledAmp(0.06, 0.09), "other", other, shared); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestACPrefixMatchesFullSweep: a prefix sweep's points are the full
// sweep's, bit for bit, and the sweep stops right after the point the
// visitor rejects.
func TestACPrefixMatchesFullSweep(t *testing.T) {
	n := nominalAmp()
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := DecadeFreqs(1e3, 1e9, 10)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ACWith(n, op, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	for _, stop := range []int{0, 1, 17, len(freqs) - 1, len(freqs)} {
		visited := 0
		err := ACPrefix(n, op, freqs, ws, func(i int, x []complex128) bool {
			if i != visited {
				t.Fatalf("stop %d: visited point %d, want %d", stop, i, visited)
			}
			visited++
			for k := range x {
				if x[k] != full.X[i][k] {
					t.Fatalf("stop %d: point %d X[%d] = %v, full sweep %v", stop, i, k, x[k], full.X[i][k])
				}
			}
			return i < stop
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(stop+1, len(freqs)); visited != want {
			t.Errorf("stop %d: visited %d points, want %d", stop, visited, want)
		}
	}
	if err := ACPrefix(n, op, []float64{1e3, math.NaN()}, ws, func(int, []complex128) bool { return true }); err == nil {
		t.Error("invalid frequency accepted")
	}
}
