package netlist

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"analogyield/internal/circuit"
)

// TestParseRefusesExpansionBlowup: ten instances per level, five
// levels deep, name 100,001 devices in under 700 bytes. Parse must
// refuse the netlist with ErrTooLarge, and quickly, instead of building
// it.
func TestParseRefusesExpansionBlowup(t *testing.T) {
	start := time.Now()
	n, err := ParseFile("testdata/expansion.sp")
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v devices, err %v; want ErrTooLarge", n != nil, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("refusal took %s", elapsed)
	}
	var perr *Error
	if !errors.As(err, &perr) {
		t.Errorf("error %v is not an *Error", err)
	}
}

// TestParseExpansionLimits pins both limits at their edges: a flat
// netlist of exactly maxElements devices parses, one more is refused,
// and so is a single instance whose long names re-read past maxText.
func TestParseExpansionLimits(t *testing.T) {
	var b strings.Builder
	for i := 0; i < maxElements; i++ {
		fmt.Fprintf(&b, "R%d a 0 1k\n", i)
	}
	n, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("%d devices refused: %v", maxElements, err)
	}
	if got := len(n.Devices()); got != maxElements {
		t.Fatalf("%d devices, want %d", got, maxElements)
	}
	if _, err := ParseString(b.String() + "R_extra a 0 1k\n"); !errors.Is(err, ErrTooLarge) {
		t.Errorf("%d devices: err %v, want ErrTooLarge", maxElements+1, err)
	}

	// 64 devices with 16 KiB names, instantiated once: 1 MiB of
	// re-read text from 1 MiB of input, past maxText with the prefix.
	long := strings.Repeat("y", 16<<10)
	b.Reset()
	b.WriteString(".subckt wide a\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, "R%s%d a 0 1k\n", long, i)
	}
	b.WriteString(".ends\nX1 in wide\n")
	if _, err := ParseString(b.String()); !errors.Is(err, ErrTooLarge) {
		t.Errorf("long names: err %v, want ErrTooLarge", err)
	}
}

// parseAllocBound is the most Parse may allocate for n bytes of input:
// a fixed allowance for a netlist at both expansion limits, plus a
// linear term for reading the text itself.
func parseAllocBound(n int) uint64 { return 48<<20 + 64*uint64(n) }

// FuzzParse holds Parse to its boundary: any bytes give a netlist or
// an *Error, never a panic, and allocation and time stay bounded
// however the input nests its subcircuits.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob("../../netlists/*.sp")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, "testdata/expansion.sp", "testdata/ota_openloop.sp")
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(".subckt e a\n.ends\n.subckt f a\nX1 a e\nX2 a e\n.ends\nX1 n f\n+ extra\n"))
	// A long run of continuation lines must cost linear time: joined one
	// at a time, 200,000 of them copy about 40 GB.
	f.Add([]byte("R1 a 0 1k\n" + strings.Repeat("+ x\n", 200000)))
	// Non-finite values, an overflow after the suffix included.
	f.Add([]byte("R1 a 0 nank\n"))
	f.Add([]byte("R2 a 0 infinity\n"))
	f.Add([]byte("R3 a 0 1e308k\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		n, err := Parse(strings.NewReader(string(b)))
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > parseAllocBound(len(b)) {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(b), alloc, parseAllocBound(len(b)))
		}
		if elapsed > 2*time.Second {
			t.Fatalf("parsing %d bytes took %s", len(b), elapsed)
		}
		var perr *Error
		if err != nil && !errors.As(err, &perr) {
			t.Fatalf("error %v is not an *Error", err)
		}
		if err == nil {
			if name := nonFinite(n); name != "" {
				t.Fatalf("parsed %s with a non-finite value", name)
			}
		}
	})
}

// nonFinite names the first device of n holding a NaN or infinite
// value, its model's parameters included, or returns "".
func nonFinite(n *circuit.Netlist) string {
	for _, d := range n.Devices() {
		var vs []float64
		switch dev := d.(type) {
		case *circuit.Resistor:
			vs = []float64{dev.R}
		case *circuit.Capacitor:
			vs = []float64{dev.C}
		case *circuit.Inductor:
			vs = []float64{dev.L}
		case *circuit.VSource:
			vs = []float64{dev.DC, dev.ACMag}
		case *circuit.ISource:
			vs = []float64{dev.DC, dev.ACMag}
		case *circuit.VCVS:
			vs = []float64{dev.Gain}
		case *circuit.VCCS:
			vs = []float64{dev.Gm}
		case *circuit.MOSFET:
			m := dev.Model
			vs = []float64{dev.W, dev.L, m.VTO, m.KP, m.LambdaK, m.Gamma, m.Phi,
				m.NSub, m.Cox, m.CGSO, m.CGDO, m.CJ, m.LD}
		}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return d.Name()
			}
		}
	}
	return ""
}
