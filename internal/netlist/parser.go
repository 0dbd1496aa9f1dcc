// Package netlist parses a SPICE-like text format into circuit.Netlist
// values and serialises netlists back to text. The dialect covers what
// this repository's flows need:
//
//   - comment                      ; also "* ..." title lines
//     .title Symmetrical OTA
//     R1 a b 1k
//     C1 out 0 10p
//     L1 a b 1u
//     V1 in 0 DC 3.3 AC 1
//     I1 vdd bias DC 10u
//     E1 out 0 in 0 10               ; VCVS
//     G1 out 0 in 0 1m               ; VCCS
//     M1 d g s b nmos W=10u L=1u
//     .model fastn nmos VTO=0.45 KP=190u
//     .end
//
// Engineering suffixes f, p, n, u, m, k, meg, g, t are accepted on any
// number. Lines starting with '+' continue the previous line.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
	"analogyield/internal/process"
)

// ParseValue converts a SPICE number with an optional engineering
// suffix ("10u", "2.2k", "1meg") to a float.
func ParseValue(s string) (float64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("netlist: empty value")
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(t, "meg"):
		mult, t = 1e6, t[:len(t)-3]
	case strings.HasSuffix(t, "mil"):
		mult, t = 25.4e-6, t[:len(t)-3]
	default:
		if n := len(t); n > 1 {
			switch t[n-1] {
			case 'f':
				mult, t = 1e-15, t[:n-1]
			case 'p':
				mult, t = 1e-12, t[:n-1]
			case 'n':
				mult, t = 1e-9, t[:n-1]
			case 'u':
				mult, t = 1e-6, t[:n-1]
			case 'm':
				mult, t = 1e-3, t[:n-1]
			case 'k':
				mult, t = 1e3, t[:n-1]
			case 'g':
				mult, t = 1e9, t[:n-1]
			case 't':
				mult, t = 1e12, t[:n-1]
			}
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("netlist: bad number %q", s)
	}
	return v * mult, nil
}

// FormatValue renders a float with an engineering suffix where exact.
func FormatValue(v float64) string {
	abs := math.Abs(v)
	type unit struct {
		mult float64
		suf  string
	}
	units := []unit{{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"}}
	for _, u := range units {
		if abs >= u.mult && abs < u.mult*1000 {
			return trimZeros(v/u.mult) + u.suf
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func trimZeros(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Parse reads a netlist from r. The returned netlist's Title comes from
// a leading comment or .title card.
func Parse(r io.Reader) (*circuit.Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var lines []string
	lineNos := []int{}
	no := 0
	for sc.Scan() {
		no++
		raw := strings.TrimRight(sc.Text(), " \t\r")
		if t := strings.TrimSpace(raw); t == "" {
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(raw), "+") {
			if len(lines) == 0 {
				return nil, fmt.Errorf("netlist: line %d: continuation without a previous line", no)
			}
			lines[len(lines)-1] += " " + strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(raw), "+"))
			continue
		}
		lines = append(lines, raw)
		lineNos = append(lineNos, no)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	n := circuit.New("")
	models := map[string]mos.Params{
		"nmos": mos.NominalNMOS(),
		"pmos": mos.NominalPMOS(),
	}
	// Pull out .subckt definitions; their bodies are expanded at X lines.
	subs, lines, lineNos, err := extractSubckts(lines, lineNos)
	if err != nil {
		return nil, err
	}
	// First pass: models (so device lines can reference later .model
	// cards). Model cards inside subcircuit bodies are also honoured —
	// models are global in this dialect.
	scanModels := func(src []string, nos []int) error {
		for i, line := range src {
			t := strings.TrimSpace(line)
			if strings.HasPrefix(strings.ToLower(t), ".model") {
				no := 0
				if nos != nil {
					no = nos[i]
				}
				if err := parseModel(t, models); err != nil {
					return fmt.Errorf("netlist: line %d: %w", no, err)
				}
			}
		}
		return nil
	}
	if err := scanModels(lines, lineNos); err != nil {
		return nil, err
	}
	for _, sub := range subs {
		if err := scanModels(sub.body, nil); err != nil {
			return nil, err
		}
	}
	for i, line := range lines {
		t := strings.TrimSpace(line)
		lower := strings.ToLower(t)
		switch {
		case strings.HasPrefix(t, "*"):
			if n.Title == "" {
				n.Title = strings.TrimSpace(strings.TrimPrefix(t, "*"))
			}
			continue
		case strings.HasPrefix(lower, ".title"):
			n.Title = strings.TrimSpace(t[len(".title"):])
			continue
		case strings.HasPrefix(lower, ".model"):
			continue // handled in the first pass
		case strings.HasPrefix(lower, ".end"):
			return n, nil
		case strings.HasPrefix(t, "."):
			return nil, fmt.Errorf("netlist: line %d: unsupported card %q", lineNos[i], fields(t)[0])
		}
		if strings.ToUpper(t[:1]) == "X" {
			if err := expandInstance(n, t, subs, models, "", nil, 0); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNos[i], err)
			}
			continue
		}
		if err := parseDevice(n, t, models, topResolver(n), ""); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", lineNos[i], err)
		}
	}
	return n, nil
}

// topResolver interns node names at the top level of the hierarchy.
func topResolver(n *circuit.Netlist) func(string) int {
	return func(name string) int { return n.Node(name) }
}

// ParseFile parses the named netlist file.
func ParseFile(path string) (*circuit.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// ParseString parses an inline netlist.
func ParseString(s string) (*circuit.Netlist, error) {
	return Parse(strings.NewReader(s))
}

func fields(s string) []string { return strings.Fields(s) }

func parseModel(line string, models map[string]mos.Params) error {
	f := fields(line)
	if len(f) < 3 {
		return fmt.Errorf(".model needs a name and a type")
	}
	name := strings.ToLower(f[1])
	var base mos.Params
	switch strings.ToLower(f[2]) {
	case "nmos":
		base = mos.NominalNMOS()
	case "pmos":
		base = mos.NominalPMOS()
	default:
		return fmt.Errorf("unknown model type %q", f[2])
	}
	for _, kv := range f[3:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad model parameter %q", kv)
		}
		v, err := ParseValue(val)
		if err != nil {
			return err
		}
		switch strings.ToUpper(key) {
		case "VTO":
			base.VTO = v
		case "KP":
			base.KP = v
		case "LAMBDAK":
			base.LambdaK = v
		case "GAMMA":
			base.Gamma = v
		case "PHI":
			base.Phi = v
		case "NSUB":
			base.NSub = v
		case "COX":
			base.Cox = v
		case "CGSO":
			base.CGSO = v
		case "CGDO":
			base.CGDO = v
		case "CJ":
			base.CJ = v
		case "LD":
			base.LD = v
		default:
			return fmt.Errorf("unknown model parameter %q", key)
		}
	}
	models[name] = base
	return nil
}

func parseDevice(n *circuit.Netlist, line string, models map[string]mos.Params, node func(string) int, prefix string) error {
	f := fields(line)
	name := prefix + f[0]
	kind := strings.ToUpper(f[0][:1])
	need := func(k int) error {
		if len(f) < k {
			return fmt.Errorf("%s: expected at least %d fields, got %d", name, k, len(f))
		}
		return nil
	}
	switch kind {
	case "R", "C", "L":
		if err := need(4); err != nil {
			return err
		}
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		a, b := node(f[1]), node(f[2])
		switch kind {
		case "R":
			if v <= 0 {
				return fmt.Errorf("%s: non-positive resistance", name)
			}
			return n.Add(&circuit.Resistor{Inst: name, A: a, B: b, R: v})
		case "C":
			return n.Add(&circuit.Capacitor{Inst: name, A: a, B: b, C: v})
		default:
			return n.Add(&circuit.Inductor{Inst: name, A: a, B: b, L: v})
		}
	case "V", "I":
		if err := need(3); err != nil {
			return err
		}
		pos, neg := node(f[1]), node(f[2])
		dc, ac := 0.0, 0.0
		rest := f[3:]
		for i := 0; i < len(rest); i++ {
			switch strings.ToUpper(rest[i]) {
			case "DC":
				if i+1 >= len(rest) {
					return fmt.Errorf("%s: DC needs a value", name)
				}
				v, err := ParseValue(rest[i+1])
				if err != nil {
					return err
				}
				dc = v
				i++
			case "AC":
				if i+1 >= len(rest) {
					return fmt.Errorf("%s: AC needs a value", name)
				}
				v, err := ParseValue(rest[i+1])
				if err != nil {
					return err
				}
				ac = v
				i++
			default:
				v, err := ParseValue(rest[i])
				if err != nil {
					return err
				}
				dc = v
			}
		}
		if kind == "V" {
			return n.Add(&circuit.VSource{Inst: name, Pos: pos, Neg: neg, DC: dc, ACMag: ac})
		}
		return n.Add(&circuit.ISource{Inst: name, Pos: pos, Neg: neg, DC: dc, ACMag: ac})
	case "E", "G":
		if err := need(6); err != nil {
			return err
		}
		v, err := ParseValue(f[5])
		if err != nil {
			return err
		}
		op, on := node(f[1]), node(f[2])
		ip, in := node(f[3]), node(f[4])
		if kind == "E" {
			return n.Add(&circuit.VCVS{Inst: name, OutP: op, OutN: on, InP: ip, InN: in, Gain: v})
		}
		return n.Add(&circuit.VCCS{Inst: name, OutP: op, OutN: on, InP: ip, InN: in, Gm: v})
	case "M":
		if err := need(6); err != nil {
			return err
		}
		model, ok := models[strings.ToLower(f[5])]
		if !ok {
			return fmt.Errorf("%s: unknown model %q", name, f[5])
		}
		w, l := 10e-6, 1e-6
		for _, kv := range f[6:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("%s: bad parameter %q", name, kv)
			}
			v, err := ParseValue(val)
			if err != nil {
				return err
			}
			switch strings.ToUpper(key) {
			case "W":
				w = v
			case "L":
				l = v
			default:
				return fmt.Errorf("%s: unknown parameter %q", name, key)
			}
		}
		if !(w > 0 && l > 0) || math.IsInf(w, 1) || math.IsInf(l, 1) {
			return fmt.Errorf("%s: W and L must be positive and finite, got W=%g L=%g", name, w, l)
		}
		return n.Add(&circuit.MOSFET{Inst: name,
			D: node(f[1]), G: node(f[2]), S: node(f[3]), B: node(f[4]),
			W: w, L: l, Model: model})
	default:
		return fmt.Errorf("unsupported element %q", name)
	}
}

// Serialize renders a netlist back to the text dialect. MOSFET models
// are emitted as .model cards named after the instance.
func Serialize(n *circuit.Netlist, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if n.Title != "" {
		fmt.Fprintf(bw, ".title %s\n", n.Title)
	}
	name := n.NodeName
	for _, d := range n.Devices() {
		switch dev := d.(type) {
		case *circuit.Resistor:
			fmt.Fprintf(bw, "%s %s %s %s\n", dev.Inst, name(dev.A), name(dev.B), FormatValue(dev.R))
		case *circuit.Capacitor:
			fmt.Fprintf(bw, "%s %s %s %s\n", dev.Inst, name(dev.A), name(dev.B), FormatValue(dev.C))
		case *circuit.Inductor:
			fmt.Fprintf(bw, "%s %s %s %s\n", dev.Inst, name(dev.A), name(dev.B), FormatValue(dev.L))
		case *circuit.VSource:
			fmt.Fprintf(bw, "%s %s %s DC %s AC %s\n", dev.Inst, name(dev.Pos), name(dev.Neg),
				FormatValue(dev.DC), FormatValue(dev.ACMag))
		case *circuit.ISource:
			fmt.Fprintf(bw, "%s %s %s DC %s AC %s\n", dev.Inst, name(dev.Pos), name(dev.Neg),
				FormatValue(dev.DC), FormatValue(dev.ACMag))
		case *circuit.VCVS:
			fmt.Fprintf(bw, "%s %s %s %s %s %s\n", dev.Inst, name(dev.OutP), name(dev.OutN),
				name(dev.InP), name(dev.InN), FormatValue(dev.Gain))
		case *circuit.VCCS:
			fmt.Fprintf(bw, "%s %s %s %s %s %s\n", dev.Inst, name(dev.OutP), name(dev.OutN),
				name(dev.InP), name(dev.InN), FormatValue(dev.Gm))
		case *circuit.MOSFET:
			mname := strings.ToLower(dev.Inst) + "_model"
			base := "nmos"
			if dev.Model.Class == process.PMOS {
				base = "pmos"
			}
			fmt.Fprintf(bw, ".model %s %s VTO=%s KP=%s LAMBDAK=%s GAMMA=%s\n",
				mname, base, FormatValue(dev.Model.VTO), FormatValue(dev.Model.KP),
				FormatValue(dev.Model.LambdaK), FormatValue(dev.Model.Gamma))
			fmt.Fprintf(bw, "%s %s %s %s %s %s W=%s L=%s\n", dev.Inst,
				name(dev.D), name(dev.G), name(dev.S), name(dev.B), mname,
				FormatValue(dev.W), FormatValue(dev.L))
		default:
			fmt.Fprintf(bw, "* (unserialisable device %s)\n", d.Name())
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}
