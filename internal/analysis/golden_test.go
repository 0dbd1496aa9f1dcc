package analysis_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/behave"
	"analogyield/internal/circuit"
	"analogyield/internal/filter"
	"analogyield/internal/mos"
	"analogyield/internal/num"
	"analogyield/internal/ota"
	"analogyield/internal/process"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ac_golden.txt from the current code")

const goldenFile = "testdata/ac_golden.txt"

// goldenCase is one netlist whose AC sweep and output noise are pinned
// bit for bit.
type goldenCase struct {
	name  string
	net   *circuit.Netlist
	freqs []float64
}

// deviceCases builds one small netlist per device type. Each has a
// resistor, so it has a thermal noise source, and an "out" node.
func deviceCases() []goldenCase {
	freqs := num.Logspace(10, 1e9, 65)
	var cases []goldenCase
	add := func(name string, build func(n *circuit.Netlist, in, out int)) {
		n := circuit.New(name)
		in, out := n.Node("in"), n.Node("out")
		n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: circuit.Ground, DC: 0.3, ACMag: 1})
		build(n, in, out)
		cases = append(cases, goldenCase{name, n, freqs})
	}
	gnd := circuit.Ground
	add("R", func(n *circuit.Netlist, in, out int) {
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: in, B: out, R: 1e3})
		n.MustAdd(&circuit.Resistor{Inst: "R2", A: out, B: gnd, R: 2.2e3})
	})
	add("C", func(n *circuit.Netlist, in, out int) {
		x := n.Node("x")
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: in, B: out, R: 1e3})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: gnd, C: 1e-9})
		n.MustAdd(&circuit.Capacitor{Inst: "C2", A: out, B: x, C: 3.3e-12})
		n.MustAdd(&circuit.Resistor{Inst: "R2", A: x, B: gnd, R: 47e3})
	})
	add("L", func(n *circuit.Netlist, in, out int) {
		mid := n.Node("mid")
		n.MustAdd(&circuit.Inductor{Inst: "L1", A: in, B: mid, L: 1e-6})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: mid, B: out, C: 1e-9})
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: out, B: gnd, R: 50})
	})
	add("V", func(n *circuit.Netlist, in, out int) {
		mid := n.Node("mid")
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: in, B: mid, R: 1e3})
		n.MustAdd(&circuit.VSource{Inst: "V2", Pos: mid, Neg: out, DC: 1.2, ACMag: 0.25})
		n.MustAdd(&circuit.Resistor{Inst: "R2", A: out, B: gnd, R: 3e3})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: gnd, C: 2e-12})
	})
	add("I", func(n *circuit.Netlist, in, out int) {
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: in, B: out, R: 10e3})
		n.MustAdd(&circuit.ISource{Inst: "I1", Pos: gnd, Neg: out, DC: 1e-6, ACMag: 2e-4})
		n.MustAdd(&circuit.Resistor{Inst: "R2", A: out, B: gnd, R: 5e3})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: gnd, C: 10e-12})
	})
	add("VCVS", func(n *circuit.Netlist, in, out int) {
		mid := n.Node("mid")
		n.MustAdd(&circuit.VCVS{Inst: "E1", OutP: mid, OutN: gnd, InP: in, InN: gnd, Gain: -3})
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: mid, B: out, R: 2e3})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: gnd, C: 5e-12})
	})
	add("VCCS", func(n *circuit.Netlist, in, out int) {
		n.MustAdd(&circuit.VCCS{Inst: "G1", OutP: out, OutN: gnd, InP: in, InN: gnd, Gm: 1e-3})
		n.MustAdd(&circuit.Resistor{Inst: "R1", A: out, B: gnd, R: 20e3})
		n.MustAdd(&circuit.Capacitor{Inst: "C1", A: out, B: gnd, C: 1e-12})
	})
	add("MOSFET", func(n *circuit.Netlist, in, out int) {
		vdd, g := n.Node("vdd"), n.Node("g")
		n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: gnd, DC: 3.3})
		n.MustAdd(&circuit.VSource{Inst: "VG", Pos: g, Neg: in, DC: 0.5})
		n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: out, R: 20e3})
		n.MustAdd(&circuit.MOSFET{Inst: "M1", D: out, G: g, S: gnd, B: gnd,
			W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()})
		n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: gnd, C: 1e-12})
	})
	add("behave.Amp", func(n *circuit.Netlist, in, out int) {
		x := n.Node("x")
		n.MustAdd(&circuit.Resistor{Inst: "RS", A: in, B: x, R: 1e3})
		n.MustAdd(&behave.Amp{Inst: "X1", InP: x, InN: gnd, Out: out, GainDB: 40, Ro: 10e3, Invert: true})
		n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: gnd, C: 2e-12})
	})
	add("behave.OTA", func(n *circuit.Netlist, in, out int) {
		x := n.Node("x")
		n.MustAdd(&circuit.Resistor{Inst: "RS", A: in, B: x, R: 1e3})
		n.MustAdd(&behave.OTA{Inst: "X1", InP: x, InN: out, Out: out, Gm: 1e-4, Ro: 1e6, Co: 0.5e-12})
		n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: gnd, C: 2e-12})
	})
	return cases
}

// otaCases builds the OTA testbench at the nominal design and at 50
// seeded Monte Carlo samples spread over the Table 1 design space.
func otaCases() []goldenCase {
	cfg := ota.DefaultConfig()
	space := ota.DefaultSpace()
	proc := process.C35()
	freqs := num.Logspace(100, 1e9, 71) // the testbench sweep
	cases := []goldenCase{{"ota/nominal", cfg.Build(ota.NominalParams(), nil), freqs}}
	genes := make([]float64, 8)
	for i := 0; i < 50; i++ {
		for g := range genes {
			// A fixed low-discrepancy walk over the unit cube.
			genes[g] = math.Mod(0.5+float64(i+1)*(0.6180339887+0.1127*float64(g)), 1)
		}
		p, err := space.Denormalize(genes)
		if err != nil {
			panic(err)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("ota/mc%02d", i), cfg.Build(p, proc.NewSample(7, i)), freqs})
	}
	return cases
}

// filterCases builds the two-OTA transistor-level biquad at nominal and
// at two seeded samples.
func filterCases() []goldenCase {
	caps := filter.Caps{C1: 50e-12, C2: 25e-12, C3: 2e-12}
	cfg := ota.DefaultConfig()
	freqs := num.Logspace(1e3, 100e6, 61) // filter.Measure's sweep
	cases := []goldenCase{{"filter/nominal", filter.BuildTransistor(caps, cfg, ota.NominalParams(), nil), freqs}}
	for i := 0; i < 2; i++ {
		n := filter.BuildTransistor(caps, cfg, ota.NominalParams(), process.C35().NewSample(11, i))
		cases = append(cases, goldenCase{fmt.Sprintf("filter/mc%d", i), n, freqs})
	}
	return cases
}

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func acDigest(res *analysis.ACResult) string {
	h := sha256.New()
	for i, x := range res.X {
		writeFloat(h, res.Freqs[i])
		for _, v := range x {
			writeFloat(h, real(v))
			writeFloat(h, imag(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func noiseDigest(res *analysis.NoiseResult) string {
	h := sha256.New()
	for _, v := range res.OutputPSD {
		writeFloat(h, v)
	}
	names := make([]string, 0, len(res.ByDevice))
	for name := range res.ByDevice {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range res.ByDevice[name] {
			writeFloat(h, v)
		}
	}
	writeFloat(h, res.TotalRMS)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLine sweeps one case through a reused workspace and returns
// "name ac=<sha256> noise=<sha256>".
func goldenLine(t *testing.T, c goldenCase, ws *analysis.Workspace) string {
	t.Helper()
	op, err := analysis.OP(c.net, &analysis.OPOptions{WS: ws})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	ac, err := analysis.ACWith(c.net, op, c.freqs, ws)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	acd := acDigest(ac)
	noise, err := analysis.Noise(c.net, op, "out", c.freqs)
	if err != nil {
		t.Fatalf("%s: noise: %v", c.name, err)
	}
	return fmt.Sprintf("%s ac=%s noise=%s", c.name, acd, noiseDigest(noise))
}

// TestACNoiseGolden pins every AC solution entry and every noise PSD of
// one netlist per device type, the OTA testbench across the design
// space and Monte Carlo, and the transistor-level filter to the
// Float64bits recorded in testdata. The digests were generated with
// per-frequency-point stamping; the once-per-sweep recording must
// reproduce them exactly. Never regenerate them (-update) for a change
// that is meant to keep the numerics.
func TestACNoiseGolden(t *testing.T) {
	var cases []goldenCase
	cases = append(cases, deviceCases()...)
	cases = append(cases, otaCases()...)
	cases = append(cases, filterCases()...)

	ws := analysis.NewWorkspace()
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = goldenLine(t, c, ws)
	}
	path := filepath.FromSlash(goldenFile)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the test builds %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
