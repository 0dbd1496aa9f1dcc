package netlist

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1k", 1e3}, {"10u", 1e-5}, {"2.2p", 2.2e-12}, {"1meg", 1e6},
		{"1.5", 1.5}, {"-3m", -3e-3}, {"100f", 1e-13}, {"1n", 1e-9},
		{"3g", 3e9}, {"2t", 2e12}, {"0.35u", 0.35e-6},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > math.Abs(c.want)*1e-12 {
			t.Errorf("ParseValue(%q) = %g, want %g", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "1x2"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q): want error", bad)
		}
	}
}

func TestFormatValueRoundTrip(t *testing.T) {
	for _, v := range []float64{1e3, 2.2e-12, 3.3, 10e-6, 1e6, 4.7e-9} {
		s := FormatValue(v)
		back, err := ParseValue(s)
		if err != nil {
			t.Fatalf("FormatValue(%g) = %q unparseable: %v", v, s, err)
		}
		if math.Abs(back-v) > math.Abs(v)*1e-5 {
			t.Errorf("round trip %g -> %q -> %g", v, s, back)
		}
	}
}

const dividerNet = `* simple divider
V1 in 0 DC 3
R1 in mid 1k
R2 mid 0 2k
.end
`

func TestParseDivider(t *testing.T) {
	n, err := ParseString(dividerNet)
	if err != nil {
		t.Fatal(err)
	}
	if n.Title != "simple divider" {
		t.Errorf("title = %q", n.Title)
	}
	if len(n.Devices()) != 3 {
		t.Fatalf("devices = %d", len(n.Devices()))
	}
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := op.V("mid")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-6 {
		t.Errorf("V(mid) = %g", v)
	}
}

func TestParseMOSWithModelCard(t *testing.T) {
	src := `.title mos test
.model fastn nmos VTO=0.4 KP=200u
VDD vdd 0 DC 3.3
VG g 0 DC 1.0
RD vdd d 20k
M1 d g 0 0 fastn W=10u L=1u
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	m := n.Device("M1").(*circuit.MOSFET)
	if m.Model.VTO != 0.4 || math.Abs(m.Model.KP-200e-6) > 1e-12 {
		t.Errorf("model overrides not applied: %+v", m.Model)
	}
	if math.Abs(m.W-10e-6) > 1e-15 || math.Abs(m.L-1e-6) > 1e-15 {
		t.Errorf("geometry = %g x %g", m.W, m.L)
	}
	if _, err := analysis.OP(n, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseModelForwardReference(t *testing.T) {
	// Device line before its .model card must still resolve.
	src := `M1 d g 0 0 fastn W=10u L=1u
V1 d 0 DC 1
V2 g 0 DC 1
.model fastn nmos VTO=0.3
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Device("M1").(*circuit.MOSFET).Model.VTO != 0.3 {
		t.Error("forward model reference not resolved")
	}
}

func TestParseControlledSources(t *testing.T) {
	src := `V1 in 0 DC 1
E1 e 0 in 0 5
RL1 e 0 1k
G1 0 g in 0 2m
RL2 g 0 1k
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	op, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ve, _ := op.V("e")
	vg, _ := op.V("g")
	if math.Abs(ve-5) > 1e-6 {
		t.Errorf("VCVS out = %g", ve)
	}
	if math.Abs(vg-2) > 1e-6 {
		t.Errorf("VCCS out = %g (want 2 V = 2mS*1V*1k)", vg)
	}
}

func TestParseContinuationLines(t *testing.T) {
	src := "V1 in 0\n+ DC 3\nR1 in 0 1k\n.end\n"
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	vs := n.Device("V1").(*circuit.VSource)
	if vs.DC != 3 {
		t.Errorf("continuation lost DC value: %g", vs.DC)
	}
}

func TestParseSourceSyntaxVariants(t *testing.T) {
	src := `V1 a 0 5
V2 b 0 DC 2 AC 1
I1 0 c 1m
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Device("V1").(*circuit.VSource).DC != 5 {
		t.Error("bare value not parsed as DC")
	}
	v2 := n.Device("V2").(*circuit.VSource)
	if v2.DC != 2 || v2.ACMag != 1 {
		t.Error("DC/AC pair not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"R1 a 0\n",                       // missing value
		"R1 a 0 -5\n",                    // negative resistance
		"Q1 a b c\n",                     // unsupported element
		"M1 d g 0 0 nomodel W=1u L=1u\n", // unknown model
		".model x diode\n",               // unknown model type
		".subckt foo\n",                  // unsupported card
		"+ R1 a 0 1k\n",                  // leading continuation
		"R1 a 0 1k\nR1 b 0 2k\n",         // duplicate name
		"M1 d g 0 0 nmos W=1u Z=2\n",     // unknown M parameter
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted bad netlist %q", src)
		}
	}
}

// TestParseRejectsBadMOSGeometry: a MOSFET whose W or L is not a
// positive finite length is refused at parse time with the line number,
// so untrusted netlists never reach the compact model's geometry panic.
func TestParseRejectsBadMOSGeometry(t *testing.T) {
	for _, geom := range []string{
		"W=-10u L=1u", "W=0 L=1u", "W=10u L=0", "W=10u L=-1u",
		"W=nanu L=1u", "W=10u L=1e308meg", // NaN, and a value that overflows to +Inf
		"L=0", // W keeps its default
	} {
		src := "* bad geometry\nM1 d d 0 0 nmos " + geom + "\nI1 0 d DC 10u\n"
		_, err := ParseString(src)
		if err == nil {
			t.Errorf("accepted %q", geom)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, "M1") {
			t.Errorf("%q: error %q does not name line 2 and M1", geom, msg)
		}
	}
	if _, err := ParseString("M1 d d 0 0 nmos W=1n L=0.35u\n"); err != nil {
		t.Errorf("rejected a tiny but positive width: %v", err)
	}
}

// TestParseRefusesNonFiniteValues: a NaN or infinite value, including
// a finite mantissa that overflows after its suffix, is refused with
// ErrNonFinite by an error naming the line and the device (or model), so
// it never reaches Newton or the AC solver.
func TestParseRefusesNonFiniteValues(t *testing.T) {
	for _, c := range []struct{ line, name string }{
		{"R1 a 0 nank", "R1"},
		{"R2 a 0 infinity", "R2"},
		{"R3 a 0 1e308k", "R3"},
		{"V2 a 0 DC 1 AC -infinity", "V2"},
		{"G1 a 0 a 0 nanu", "G1"},
		{".model hot nmos KP=1e308meg", "hot"},
	} {
		_, err := ParseString("* non-finite\nV1 a 0 DC 1\n" + c.line + "\n")
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("%q: err %v, want ErrNonFinite", c.line, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, c.name) {
			t.Errorf("%q: error %q does not name line 3 and %s", c.line, msg, c.name)
		}
	}
	for _, s := range []string{"nank", "NaNu", "-Infinity", "+infinity", "1e308k", "2e303meg"} {
		if _, err := ParseValue(s); !errors.Is(err, ErrNonFinite) {
			t.Errorf("ParseValue(%q): err %v, want ErrNonFinite", s, err)
		}
	}
	// A bare "nan" or "-inf" ends in a suffix letter, so what is left is
	// no number at all.
	for _, s := range []string{"nan", "-inf"} {
		if _, err := ParseValue(s); err == nil {
			t.Errorf("ParseValue(%q): want error", s)
		}
	}
	if v, err := ParseValue("1e305k"); err != nil || v != 1e308 {
		t.Errorf("ParseValue(1e305k) = %g, %v; want 1e308", v, err)
	}
}

func TestParseStopsAtEnd(t *testing.T) {
	n, err := ParseString("R1 a 0 1k\n.end\nR2 b 0 2k\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Devices()) != 1 {
		t.Error("content after .end parsed")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `.title round trip
V1 in 0 DC 3 AC 1
R1 in mid 1k
C1 mid 0 10p
L1 mid x 1u
R2 x 0 50
E1 e 0 mid 0 2
RL e 0 1k
M1 d g 0 0 nmos W=20u L=2u
VD d 0 DC 2
VG g 0 DC 1
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Serialize(n, &buf); err != nil {
		t.Fatal(err)
	}
	n2, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if len(n2.Devices()) != len(n.Devices()) {
		t.Fatalf("device count changed: %d -> %d", len(n.Devices()), len(n2.Devices()))
	}
	// Same DC solution.
	op1, err := analysis.OP(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := analysis.OP(n2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"mid", "e", "d"} {
		v1, _ := op1.V(node)
		v2, _ := op2.V(node)
		if math.Abs(v1-v2) > 1e-6 {
			t.Errorf("node %s: %g vs %g after round trip", node, v1, v2)
		}
	}
	if !strings.Contains(buf.String(), ".model m1_model nmos") {
		t.Error("MOSFET model card not emitted")
	}
}
