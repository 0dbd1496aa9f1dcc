// Package circuit provides the netlist data model of the simulator:
// nodes, devices (passives, sources, controlled sources, MOSFETs) and
// the modified-nodal-analysis stamp interfaces that the analysis package
// drives for DC, AC and transient solutions.
package circuit

import (
	"fmt"
	"strings"
)

// Ground is the index of the reference node. Stamps against Ground are
// silently dropped, which keeps device code free of special cases.
const Ground = -1

// Netlist is a flat circuit: a set of named nodes and devices. The zero
// value is not usable; call New.
type Netlist struct {
	Title string

	nodes map[string]int
	names []string

	devices  []Device
	byName   map[string]int
	branches []int // branch-base per device (offset into branch unknowns)
	nBranch  int
	basedOn  int // node count the branch bases were computed for
}

// New returns an empty netlist.
func New(title string) *Netlist {
	return &Netlist{
		Title:  title,
		nodes:  make(map[string]int),
		byName: make(map[string]int),
	}
}

// IsGroundName reports whether a node name denotes the reference node.
func IsGroundName(name string) bool {
	switch strings.ToLower(name) {
	case "0", "gnd", "ground", "vss!", "gnd!":
		return true
	}
	return false
}

// Node interns a node name and returns its index (Ground for reference
// names). Node names are case-sensitive apart from the ground aliases.
func (n *Netlist) Node(name string) int {
	if IsGroundName(name) {
		return Ground
	}
	if idx, ok := n.nodes[name]; ok {
		return idx
	}
	idx := len(n.names)
	n.nodes[name] = idx
	n.names = append(n.names, name)
	return idx
}

// NodeIndex looks up an existing node by name without creating it.
func (n *Netlist) NodeIndex(name string) (int, bool) {
	if IsGroundName(name) {
		return Ground, true
	}
	idx, ok := n.nodes[name]
	return idx, ok
}

// NodeName returns the name of node idx ("0" for Ground).
func (n *Netlist) NodeName(idx int) string {
	if idx == Ground {
		return "0"
	}
	return n.names[idx]
}

// NumNodes returns the number of non-ground nodes.
func (n *Netlist) NumNodes() int { return len(n.names) }

// NumBranches returns the number of auxiliary branch-current unknowns.
func (n *Netlist) NumBranches() int { return n.nBranch }

// NumUnknowns returns the size of the MNA system.
func (n *Netlist) NumUnknowns() int { return len(n.names) + n.nBranch }

// Add appends a device. Device names must be unique within the netlist.
func (n *Netlist) Add(d Device) error {
	name := d.Name()
	if name == "" {
		return fmt.Errorf("circuit: device with empty name")
	}
	if _, dup := n.byName[name]; dup {
		return fmt.Errorf("circuit: duplicate device name %q", name)
	}
	n.byName[name] = len(n.devices)
	n.devices = append(n.devices, d)
	n.branches = append(n.branches, len(n.names)+n.nBranch) // provisional
	n.nBranch += d.Branches()
	n.rebase()
	return nil
}

// MustAdd is Add that panics on error; used by topology builders whose
// names are statically unique.
func (n *Netlist) MustAdd(d Device) {
	if err := n.Add(d); err != nil {
		panic(err)
	}
}

// rebase recomputes branch bases: branch unknowns follow the nodes, so
// every base moves when a node is interned.
func (n *Netlist) rebase() {
	base := len(n.names)
	for i, d := range n.devices {
		n.branches[i] = base
		base += d.Branches()
	}
	n.basedOn = len(n.names)
}

// Devices returns the device list in insertion order. The returned slice
// must not be modified.
func (n *Netlist) Devices() []Device { return n.devices }

// Device returns the named device, or nil when absent.
func (n *Netlist) Device(name string) Device {
	if i, ok := n.byName[name]; ok {
		return n.devices[i]
	}
	return nil
}

// BranchBase returns the first unknown index of device i's branch
// currents. It rebases only when nodes were interned since the last
// Add or rebase, so node interning after Add is safe and the analyses'
// per-stamp calls cost a comparison.
func (n *Netlist) BranchBase(i int) int {
	if n.basedOn != len(n.names) {
		n.rebase()
	}
	return n.branches[i]
}

// Stats summarises the netlist for logs and tool output.
func (n *Netlist) Stats() string {
	nm := 0
	for _, d := range n.devices {
		if _, ok := d.(*MOSFET); ok {
			nm++
		}
	}
	return fmt.Sprintf("%s: %d nodes, %d devices (%d MOSFETs), %d unknowns",
		n.Title, n.NumNodes(), len(n.devices), nm, n.NumUnknowns())
}

// Clone returns a deep copy of the netlist. Devices are copied via their
// Copy method so that per-instance parameter perturbation (Monte Carlo)
// cannot alias the original.
func (n *Netlist) Clone() *Netlist {
	c := New(n.Title)
	c.names = append([]string(nil), n.names...)
	for k, v := range n.nodes {
		c.nodes[k] = v
	}
	for _, d := range n.devices {
		c.MustAdd(d.Copy())
	}
	return c
}
