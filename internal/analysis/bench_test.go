package analysis

import (
	"testing"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
	"analogyield/internal/num"
)

func benchAmp(b testing.TB) *circuit.Netlist {
	b.Helper()
	n := circuit.New("bench cs amp")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d := n.Node("d")
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0.8, ACMag: 1})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: 20e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: d, B: circuit.Ground, C: 1e-12})
	return n
}

func BenchmarkOPCommonSource(b *testing.B) {
	n := benchAmp(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OP(n, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPCommonSourceWS is BenchmarkOPCommonSource with a reused
// workspace — the configuration every GA/MC worker runs in.
func BenchmarkOPCommonSourceWS(b *testing.B) {
	n := benchAmp(b)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OP(n, &OPOptions{WS: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPSolve measures the steady-state Newton solve: a converged
// warm start refined through a reused workspace, the inner loop of every
// repeated evaluation (DC sweeps, GA populations, Monte Carlo samples).
func BenchmarkOPSolve(b *testing.B) {
	n := benchAmp(b)
	op, err := OP(n, nil)
	if err != nil {
		b.Fatal(err)
	}
	var o *OPOptions
	opts := o.withDefaults()
	ws := opts.WS.real(n.NumUnknowns())
	x := make([]float64, n.NumUnknowns())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, op.X)
		if _, ok := newton(n, x, opts, opts.Gmin, 1, ws); !ok {
			b.Fatal("steady-state newton did not converge")
		}
	}
}

// TestOPSolveSteadyStateAllocs pins the allocation budget of the
// steady-state solve path: at most 2 allocs/op (the stamp context; every
// matrix, RHS, update and LU buffer is reused).
func TestOPSolveSteadyStateAllocs(t *testing.T) {
	n := benchAmp(t)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var o *OPOptions
	opts := o.withDefaults()
	ws := opts.WS.real(n.NumUnknowns())
	x := make([]float64, n.NumUnknowns())
	allocs := testing.AllocsPerRun(50, func() {
		copy(x, op.X)
		if _, ok := newton(n, x, opts, opts.Gmin, 1, ws); !ok {
			t.Fatal("steady-state newton did not converge")
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state OP solve allocates %v objects/op, want <= 2", allocs)
	}
}

func BenchmarkACSweep(b *testing.B) {
	n := benchAmp(b)
	op, err := OP(n, nil)
	if err != nil {
		b.Fatal(err)
	}
	freqs := num.Logspace(1e3, 1e9, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AC(n, op, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACSweepWS is BenchmarkACSweep with a reused workspace: the
// per-frequency complex system is stamped and factored in place.
func BenchmarkACSweepWS(b *testing.B) {
	n := benchAmp(b)
	op, err := OP(n, nil)
	if err != nil {
		b.Fatal(err)
	}
	freqs := num.Logspace(1e3, 1e9, 60)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ACWith(n, op, freqs, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// TestACSweepSteadyStateAllocs pins the allocation budget of an
// ACDecadeWith sweep that reuses its workspace: at most 5 allocs/op —
// the frequency list, its copy in the result, the result struct, the
// row headers and one backing array for every point's solution — the
// same for any number of points.
func TestACSweepSteadyStateAllocs(t *testing.T) {
	n := benchAmp(t)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	for _, ppd := range []int{2, 10, 40} {
		if _, err := ACDecadeWith(n, op, 1e3, 1e9, ppd, ws); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ACDecadeWith(n, op, 1e3, 1e9, ppd, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Errorf("%d points/decade: AC sweep allocates %v objects/op, want <= 5", ppd, allocs)
		}
	}
}

// BenchmarkTranWS runs a short fixed-step transient with a reused
// workspace.
func BenchmarkTranWS(b *testing.B) {
	n := benchAmp(b)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tran(n, TranOptions{TStop: 100e-9, TStep: 1e-9, WS: ws}); err != nil {
			b.Fatal(err)
		}
	}
}
