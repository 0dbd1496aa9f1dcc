package netlist

import (
	"errors"
	"fmt"
	"strings"

	"analogyield/internal/circuit"
	"analogyield/internal/mos"
)

// subckt is a parsed .subckt definition: its port names and its body
// lines (still unexpanded text).
type subckt struct {
	name  string
	ports []string
	body  []string
}

// extractSubckts removes .subckt/.ends blocks from the line list and
// returns them keyed by lowercase name along with the remaining
// top-level lines. Nested .subckt definitions are rejected (instances
// may nest; definitions may not).
func extractSubckts(lines []string, lineNos []int) (map[string]*subckt, []string, []int, error) {
	subs := make(map[string]*subckt)
	var outLines []string
	var outNos []int
	var cur *subckt
	curLine := 0
	for i, line := range lines {
		t := strings.TrimSpace(line)
		lower := strings.ToLower(t)
		switch {
		case strings.HasPrefix(lower, ".subckt"):
			if cur != nil {
				return nil, nil, nil, fmt.Errorf("netlist: line %d: nested .subckt definition", lineNos[i])
			}
			f := strings.Fields(t)
			if len(f) < 2 {
				return nil, nil, nil, fmt.Errorf("netlist: line %d: .subckt needs a name", lineNos[i])
			}
			cur = &subckt{name: strings.ToLower(f[1]), ports: f[2:]}
			curLine = lineNos[i]
		case strings.HasPrefix(lower, ".ends"):
			if cur == nil {
				return nil, nil, nil, fmt.Errorf("netlist: line %d: .ends without .subckt", lineNos[i])
			}
			if _, dup := subs[cur.name]; dup {
				return nil, nil, nil, fmt.Errorf("netlist: line %d: duplicate subcircuit %q", curLine, cur.name)
			}
			subs[cur.name] = cur
			cur = nil
		default:
			if cur != nil {
				cur.body = append(cur.body, line)
			} else {
				outLines = append(outLines, line)
				outNos = append(outNos, lineNos[i])
			}
		}
	}
	if cur != nil {
		return nil, nil, nil, fmt.Errorf("netlist: unterminated .subckt %q (line %d)", cur.name, curLine)
	}
	return subs, outLines, outNos, nil
}

// maxSubcktDepth bounds instance nesting (and catches recursion).
const maxSubcktDepth = 20

// An instance re-reads its definition once per use, so nesting
// multiplies: ten instances per level, five levels deep, is 100,000
// devices from under 700 bytes. Parse counts every device and instance
// line it builds, and their text with its hierarchical prefix, against
// fixed limits. maxElements is already past what the dense MNA solver
// handles (4096 unknowns is a 128 MiB matrix); maxText bounds what
// long names and lines cost when re-read.
const (
	maxElements = 4096
	maxText     = 1 << 20
)

// ErrTooLarge is wrapped by the error Parse returns for a netlist that
// expands past maxElements devices and instances, or past maxText
// bytes of device and instance text.
var ErrTooLarge = errors.New("subcircuit expansion too large")

// budget counts what a netlist has expanded to so far.
type budget struct{ elements, text int }

// charge counts one device or instance line built under prefix.
func (b *budget) charge(prefix, line string) error {
	b.elements++
	b.text += len(prefix) + len(line)
	if b.elements > maxElements {
		return fmt.Errorf("%w: more than %d devices and instances", ErrTooLarge, maxElements)
	}
	if b.text > maxText {
		return fmt.Errorf("%w: more than %d bytes of device and instance text", ErrTooLarge, maxText)
	}
	return nil
}

// expandInstance adds one X line's subcircuit contents to the netlist,
// charging every line it builds to b. prefix is the hierarchical path
// ("X1." for a top-level instance); nodeMap translates port names
// inside the definition to outer netlist node indices; all other nodes
// become "<prefix><name>".
func expandInstance(n *circuit.Netlist, line string, subs map[string]*subckt,
	models map[string]mos.Params, prefix string, outerMap map[string]int, depth int, b *budget) error {
	if depth > maxSubcktDepth {
		return fmt.Errorf("subcircuit nesting deeper than %d (recursive definition?)", maxSubcktDepth)
	}
	f := strings.Fields(line)
	if len(f) < 2 {
		return fmt.Errorf("%s: X element needs nodes and a subcircuit name", f[0])
	}
	instName := f[0]
	subName := strings.ToLower(f[len(f)-1])
	nodes := f[1 : len(f)-1]
	def, ok := subs[subName]
	if !ok {
		return fmt.Errorf("%s: unknown subcircuit %q", instName, f[len(f)-1])
	}
	if len(nodes) != len(def.ports) {
		return fmt.Errorf("%s: %d nodes for subcircuit %q with %d ports",
			instName, len(nodes), def.name, len(def.ports))
	}
	// Resolve the instance's outer node names in the *enclosing* scope:
	// through the enclosing port map where they name ports, otherwise as
	// prefixed internal nodes of the enclosing level.
	outerResolve := scopeResolver(n, prefix, outerMap)
	inner := make(map[string]int, len(def.ports))
	for i, port := range def.ports {
		inner[port] = outerResolve(nodes[i])
	}
	childPrefix := prefix + instName + "."
	childResolve := scopeResolver(n, childPrefix, inner)
	for _, bodyLine := range def.body {
		t := strings.TrimSpace(bodyLine)
		if t == "" || strings.HasPrefix(t, "*") || strings.HasPrefix(t, ".") {
			continue
		}
		if err := b.charge(childPrefix, t); err != nil {
			return fmt.Errorf("%s: %w", instName, err)
		}
		if strings.ToUpper(t[:1]) == "X" {
			if err := expandInstance(n, t, subs, models, childPrefix, inner, depth+1, b); err != nil {
				return fmt.Errorf("%s: %w", instName, err)
			}
			continue
		}
		if err := parseDevice(n, t, models, childResolve, childPrefix); err != nil {
			return fmt.Errorf("%s: %w", instName, err)
		}
	}
	return nil
}

// scopeResolver resolves node names within one hierarchy level: ground
// aliases stay ground, port names map to the enclosing scope's nodes,
// everything else becomes a private node "<prefix><name>".
func scopeResolver(n *circuit.Netlist, prefix string, portMap map[string]int) func(string) int {
	return func(name string) int {
		if circuit.IsGroundName(name) {
			return circuit.Ground
		}
		if portMap != nil {
			if idx, ok := portMap[name]; ok {
				return idx
			}
		}
		return n.Node(prefix + name)
	}
}
