package analysis

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
)

func rcLowpass(t *testing.T, r, c float64) *circuit.Netlist {
	t.Helper()
	n := circuit.New("rc")
	in := n.Node("in")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: in, Neg: circuit.Ground, DC: 0, ACMag: 1})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: in, B: out, R: r})
	n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: circuit.Ground, C: c})
	return n
}

func TestACRCLowpass(t *testing.T) {
	r, c := 1e3, 1e-9
	fc := 1 / (2 * math.Pi * r * c) // ~159 kHz
	n := rcLowpass(t, r, c)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AC(n, op, []float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	vout, err := res.V("out")
	if err != nil {
		t.Fatal(err)
	}
	// Passband: ~1. Corner: 1/sqrt(2). Far stopband: ~fc/f.
	if math.Abs(cmplx.Abs(vout[0])-1) > 0.01 {
		t.Errorf("passband gain = %g, want ~1", cmplx.Abs(vout[0]))
	}
	if math.Abs(cmplx.Abs(vout[1])-1/math.Sqrt2) > 0.01 {
		t.Errorf("corner gain = %g, want 0.707", cmplx.Abs(vout[1]))
	}
	if g := cmplx.Abs(vout[2]); g > 0.02 {
		t.Errorf("stopband gain = %g, want ~0.01", g)
	}
	// Corner phase: -45 degrees.
	ph := cmplx.Phase(vout[1]) * 180 / math.Pi
	if math.Abs(ph+45) > 1 {
		t.Errorf("corner phase = %g deg, want -45", ph)
	}
}

func TestACSeriesRLCResonance(t *testing.T) {
	// Series RLC driven by 1V: the resistor voltage peaks at resonance.
	n := circuit.New("rlc")
	in := n.Node("in")
	mid := n.Node("mid")
	out := n.Node("out")
	L, C := 1e-6, 1e-9
	f0 := 1 / (2 * math.Pi * math.Sqrt(L*C))
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: in, Neg: circuit.Ground, ACMag: 1})
	n.MustAdd(&circuit.Inductor{Inst: "L1", A: in, B: mid, L: L})
	n.MustAdd(&circuit.Capacitor{Inst: "C1", A: mid, B: out, C: C})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: out, B: circuit.Ground, R: 50})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AC(n, op, []float64{f0 / 10, f0, f0 * 10})
	if err != nil {
		t.Fatal(err)
	}
	vr, _ := res.V("out")
	if cmplx.Abs(vr[1]) < 0.99 {
		t.Errorf("at resonance |V(R)| = %g, want ~1", cmplx.Abs(vr[1]))
	}
	if cmplx.Abs(vr[0]) > 0.5 || cmplx.Abs(vr[2]) > 0.5 {
		t.Errorf("off resonance |V(R)| = %g, %g, want << 1",
			cmplx.Abs(vr[0]), cmplx.Abs(vr[2]))
	}
}

func TestACCommonSourceGain(t *testing.T) {
	// Common-source amp: small-signal gain ≈ −gm·(RD ∥ ro).
	n := circuit.New("cs")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d := n.Node("d")
	rd := 20e3
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0.8, ACMag: 1})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: rd})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10 * um, L: 1 * um, Model: mos.NominalNMOS()})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AC(n, op, []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	vout, _ := res.V("d")
	dev := DeviceReport(n, op)[0]
	gmRo := dev.Gm * (rd * (1 / dev.Gds) / (rd + 1/dev.Gds))
	gain := vout[0]
	if real(gain) > -1 {
		t.Errorf("common-source gain should be negative and > 1 in magnitude: %v", gain)
	}
	if math.Abs(cmplx.Abs(gain)-gmRo)/gmRo > 0.05 {
		t.Errorf("|gain| = %g, want ~gm*(RD||ro) = %g", cmplx.Abs(gain), gmRo)
	}
}

func TestACDecade(t *testing.T) {
	n := rcLowpass(t, 1e3, 1e-9)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ACDecade(n, op, 1e3, 1e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Freqs) < 30 {
		t.Errorf("3 decades at 10 pts/dec should give >= 30 points, got %d", len(res.Freqs))
	}
	if res.Freqs[0] != 1e3 || math.Abs(res.Freqs[len(res.Freqs)-1]-1e6) > 1 {
		t.Errorf("endpoints wrong: %g .. %g", res.Freqs[0], res.Freqs[len(res.Freqs)-1])
	}
}

func TestACValidation(t *testing.T) {
	n := rcLowpass(t, 1e3, 1e-9)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AC(n, op, nil); err == nil {
		t.Error("empty frequency list accepted")
	}
	if _, err := AC(n, op, []float64{0}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := ACDecade(n, op, 10, 5, 10); err == nil {
		t.Error("inverted range accepted")
	}
	res, err := AC(n, op, []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.V("missing"); err == nil {
		t.Error("unknown node accepted")
	}
	if v, err := res.V("0"); err != nil || v[0] != 0 {
		t.Error("ground AC voltage should be 0")
	}
}

// TestACInvalidFrequency: every sweep entry point rejects a frequency
// that is not finite and positive with ErrInvalidFrequency, before any
// solve (NaN passes a plain f <= 0 test).
func TestACInvalidFrequency(t *testing.T) {
	n := rcLowpass(t, 1e3, 1e-9)
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e3} {
		runs := map[string]func() error{
			"AC": func() error {
				_, err := AC(n, op, []float64{1e3, bad})
				return err
			},
			"ACWith": func() error {
				_, err := ACWith(n, op, []float64{1e3, 1e4, bad, 1e5}, NewWorkspace())
				return err
			},
			"ACDecade start": func() error {
				_, err := ACDecade(n, op, bad, 1e6, 10)
				return err
			},
			"ACDecade stop": func() error {
				_, err := ACDecade(n, op, 1e3, bad, 10)
				return err
			},
			"Noise": func() error {
				_, err := Noise(n, op, "out", []float64{bad, 1e3})
				return err
			},
		}
		for name, run := range runs {
			if err := run(); !errors.Is(err, ErrInvalidFrequency) {
				t.Errorf("%s with f = %g: err = %v, want ErrInvalidFrequency", name, bad, err)
			}
		}
	}
}
