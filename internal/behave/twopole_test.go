package behave

import (
	"math"
	"math/cmplx"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/ota"
)

func twoPoleBench(t *testing.T, gainDB, ro, f2, cl float64) ([]float64, []complex128) {
	t.Helper()
	n := circuit.New("two-pole bench")
	in := n.Node("in")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: circuit.Ground, ACMag: 1})
	n.MustAdd(&TwoPoleAmp{Inst: "X1", InP: in, InN: circuit.Ground, Out: out,
		GainDB: gainDB, Ro: ro, F2: f2})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: circuit.Ground, C: cl})
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.ACDecade(n, op, 100, 1e9, 10)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := ac.V("out")
	if err != nil {
		t.Fatal(err)
	}
	return ac.Freqs, tf
}

func TestTwoPoleAmpDCUnaffected(t *testing.T) {
	freqs, tf := twoPoleBench(t, 50, 100e3, 1e7, 2e-12)
	_ = freqs
	if g := measure.GainDB(tf[0]); math.Abs(g-50) > 0.05 {
		t.Errorf("DC gain = %g, want 50", g)
	}
}

func TestTwoPoleAmpAddsPhase(t *testing.T) {
	ro, cl := 100e3, 2e-12
	f2 := 5e6
	fOne, one := twoPoleBench(t, 50, ro, 0, cl)
	fTwo, two := twoPoleBench(t, 50, ro, f2, cl)
	pmOne, err := measure.PhaseMarginDeg(fOne, one)
	if err != nil {
		t.Fatal(err)
	}
	pmTwo, err := measure.PhaseMarginDeg(fTwo, two)
	if err != nil {
		t.Fatal(err)
	}
	if pmTwo >= pmOne-1 {
		t.Errorf("second pole should reduce PM: one-pole %g, two-pole %g", pmOne, pmTwo)
	}
}

func TestTwoPoleAmpMatchesPrediction(t *testing.T) {
	// PM of the two-pole model should be ~90 − atan(fu/f2).
	ro, cl := 500e3, 2e-12
	f1 := 1 / (2 * math.Pi * ro * cl)
	a0 := 100.0 // 40 dB
	fu := a0 * f1
	f2 := 3 * fu
	freqs, tf := twoPoleBench(t, 40, ro, f2, cl)
	pm, err := measure.PhaseMarginDeg(freqs, tf)
	if err != nil {
		t.Fatal(err)
	}
	// With the second pole, fu shifts slightly below a0·f1; allow a few
	// degrees of slack around the ideal formula.
	want := 90 - math.Atan(fu/f2)*180/math.Pi
	if math.Abs(pm-want) > 5 {
		t.Errorf("PM = %g, predicted ~%g", pm, want)
	}
}

// TestTwoPoleAmpMatchesTransferFunction: loaded by CL, the sweep must
// follow H(jω) = K / ((1 + jω·Ro·CL)(1 + jω/ω2)) at every point (the
// 1e-12 S gmin is the only departure).
func TestTwoPoleAmpMatchesTransferFunction(t *testing.T) {
	gainDB, ro, f2, cl := 40.0, 500e3, 2e6, 2e-12
	freqs, tf := twoPoleBench(t, gainDB, ro, f2, cl)
	k := complex(math.Pow(10, gainDB/20), 0)
	for i, f := range freqs {
		w := 2 * math.Pi * f
		want := k / (complex(1, w*ro*cl) * complex(1, f/f2))
		if d := cmplx.Abs(tf[i]-want) / cmplx.Abs(want); d > 1e-6 {
			t.Errorf("f = %g Hz: H = %v, want %v (rel err %g)", f, tf[i], want, d)
		}
	}
}

func TestFitTwoPole(t *testing.T) {
	perf := ota.Perf{GainDB: 50, PMDeg: 80, UnityHz: 1e7}
	gm, ro, f2 := FitTwoPole(perf, 2e-12)
	if gm <= 0 || ro <= 0 {
		t.Fatal("bad gm/ro")
	}
	// atan(fu/f2) = 10° → f2 = fu/tan(10°).
	want := 1e7 / math.Tan(10*math.Pi/180)
	if math.Abs(f2-want)/want > 1e-9 {
		t.Errorf("f2 = %g, want %g", f2, want)
	}
	// PM >= 90: second pole disabled.
	perf.PMDeg = 90
	_, _, f2 = FitTwoPole(perf, 2e-12)
	if f2 != 0 {
		t.Errorf("f2 = %g, want 0 (disabled)", f2)
	}
}

func TestTwoPoleImprovesFig8Fit(t *testing.T) {
	// The whole point of the extension: against the transistor OTA, the
	// two-pole behavioural model should track the high-frequency
	// response better than the paper's one-pole model.
	cfg := ota.DefaultConfig()
	params := ota.NominalParams()
	perf, err := cfg.Evaluate(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	freqs, tf, err := cfg.Response(params, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, _, f2 := FitTwoPole(perf, cfg.CLoad)
	if f2 <= 0 {
		t.Skip("nominal design has PM >= 90; no second pole to fit")
	}
	a0 := perf.GainDB
	fdom := perf.UnityHz / math.Pow(10, a0/20)
	var errOne, errTwo float64
	n := 0
	for i, f := range freqs {
		if f < perf.UnityHz { // compare beyond fu where the models differ
			continue
		}
		meas := measure.GainDB(tf[i])
		one := a0 - 10*math.Log10(1+(f/fdom)*(f/fdom))
		two := one - 10*math.Log10(1+(f/f2)*(f/f2))
		errOne += math.Abs(one - meas)
		errTwo += math.Abs(two - meas)
		n++
	}
	if n == 0 {
		t.Skip("no points beyond fu in sweep")
	}
	if errTwo >= errOne {
		t.Errorf("two-pole model error %.2f dB should beat one-pole %.2f dB", errTwo/float64(n), errOne/float64(n))
	}
}
