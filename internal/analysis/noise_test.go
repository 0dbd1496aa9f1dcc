package analysis

import (
	"math"
	"testing"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
	"analogyield/internal/num"
)

const kT300 = 1.380649e-23 * 300

func TestNoiseRCIntegratesToKTOverC(t *testing.T) {
	// The most famous result in circuit noise: a resistor filtered by a
	// capacitor integrates to vn² = kT/C regardless of R.
	for _, r := range []float64{1e3, 100e3} {
		c := 1e-12
		n := circuit.New("ktc")
		a := n.Node("a")
		out := n.Node("out")
		n.MustAdd(&circuit.VSource{Inst: "V1", Pos: a, Neg: circuit.Ground, DC: 0})
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: a, B: out, R: r})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: circuit.Ground, C: c})
		op, err := OP(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep far past the corner so the integral converges.
		fc := 1 / (2 * math.Pi * r * c)
		freqs := num.Logspace(fc/1e4, fc*1e4, 400)
		res, err := Noise(n, op, "out", freqs)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Sqrt(kT300 / c) // ~64 µV for 1 pF
		if math.Abs(res.TotalRMS-want)/want > 0.05 {
			t.Errorf("R=%g: integrated noise %g V, want kT/C %g V", r, res.TotalRMS, want)
		}
	}
}

func TestNoiseLowFreqDensity4kTR(t *testing.T) {
	// Below the corner, the output PSD equals the resistor's 4kTR.
	r, c := 10e3, 1e-12
	n := circuit.New("4ktr")
	a := n.Node("a")
	out := n.Node("out")
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: a, Neg: circuit.Ground, DC: 0})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: a, B: out, R: r})
	n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: circuit.Ground, C: c})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Noise(n, op, "out", []float64{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * kT300 * r
	if math.Abs(res.OutputPSD[0]-want)/want > 0.01 {
		t.Errorf("low-freq PSD = %g, want 4kTR = %g", res.OutputPSD[0], want)
	}
}

func TestNoiseCommonSourceAmp(t *testing.T) {
	// CS amp: output noise = 4kT·RD (load) + 4kT·γ·gm·(gain path)²; the
	// MOSFET contribution must appear and the total must exceed the
	// resistor-only noise.
	n := circuit.New("csnoise")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d := n.Node("d")
	rd := 20e3
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0.78})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: rd})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Noise(n, op, "d", []float64{1e3, 2e3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByDevice) != 2 {
		t.Fatalf("want 2 noise sources, got %d", len(res.ByDevice))
	}
	mosPSD := res.ByDevice["M1"][0]
	rdPSD := res.ByDevice["RD"][0]
	if mosPSD <= 0 || rdPSD <= 0 {
		t.Fatal("missing contributions")
	}
	// Analytic check for the resistor path: its current noise sees the
	// output impedance RD ∥ ro.
	dev := DeviceReport(n, op)[0]
	rout := rd * (1 / dev.Gds) / (rd + 1/dev.Gds)
	wantRD := 4 * kT300 / rd * rout * rout
	if math.Abs(rdPSD-wantRD)/wantRD > 0.05 {
		t.Errorf("RD contribution %g, want %g", rdPSD, wantRD)
	}
	wantMOS := 4 * kT300 * (2.0 / 3.0) * dev.Gm * rout * rout
	if math.Abs(mosPSD-wantMOS)/wantMOS > 0.05 {
		t.Errorf("M1 contribution %g, want %g", mosPSD, wantMOS)
	}
	if math.Abs(res.OutputPSD[0]-(mosPSD+rdPSD)) > 1e-30 {
		t.Error("total PSD is not the sum of contributions")
	}
}

func TestNoiseValidation(t *testing.T) {
	n := circuit.New("v")
	a := n.Node("a")
	n.MustAdd(&circuit.VSource{Inst: "V1", Pos: a, Neg: circuit.Ground, DC: 1})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: a, B: circuit.Ground, R: 1e3})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Noise(n, op, "missing", []float64{1, 2}); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := Noise(n, op, "0", []float64{1, 2}); err == nil {
		t.Error("ground output accepted")
	}
	if _, err := Noise(n, op, "a", []float64{1}); err == nil {
		t.Error("single frequency accepted")
	}
	if _, err := Noise(n, op, "a", []float64{-1, 1}); err == nil {
		t.Error("negative frequency accepted")
	}
	// Noiseless circuit.
	n2 := circuit.New("c-only")
	b := n2.Node("b")
	n2.MustAdd(&circuit.VSource{Inst: "V1", Pos: b, Neg: circuit.Ground, DC: 1})
	n2.MustAdd(&circuit.Capacitor{Inst: "C1", A: b, B: circuit.Ground, C: 1e-12})
	op2, err := OP(n2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Noise(n2, op2, "b", []float64{1, 2}); err == nil {
		t.Error("noiseless circuit accepted")
	}
}

func TestNoiseOTAInputReferredSane(t *testing.T) {
	// Integration check on the full OTA testbench netlist: output noise
	// density at low frequency should be dominated by the amplified
	// input devices — just require a plausible magnitude (nV-µV/√Hz
	// referred to the output through ~180x gain).
	if testing.Short() {
		t.Skip("OTA noise in -short mode")
	}
	// Reuse the parsed netlist via the builder in package ota would be a
	// dependency cycle here, so build a small two-stage amp instead.
	n := circuit.New("twostage")
	vdd := n.Node("vdd")
	g := n.Node("g")
	d1 := n.Node("d1")
	d2 := n.Node("d2")
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: circuit.Ground, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: circuit.Ground, DC: 0.78})
	n.MustAdd(&circuit.Resistor{Inst: "R1", A: vdd, B: d1, R: 20e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d1, G: g, S: circuit.Ground, B: circuit.Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()})
	n.MustAdd(&circuit.Resistor{Inst: "R2", A: vdd, B: d2, R: 20e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M2", D: d2, G: d1, S: circuit.Ground, B: circuit.Ground,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()})
	op, err := OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Noise(n, op, "d2", []float64{1e3, 1e4})
	if err != nil {
		t.Fatal(err)
	}
	density := math.Sqrt(res.OutputPSD[0])
	if density < 1e-9 || density > 1e-5 {
		t.Errorf("output noise density %g V/sqrt(Hz) implausible", density)
	}
	// Second-stage contributions exist but the first stage dominates
	// (its noise is amplified by the second stage's gain).
	if res.ByDevice["M1"][0] <= res.ByDevice["M2"][0] {
		t.Error("first-stage noise should dominate after amplification")
	}
}
