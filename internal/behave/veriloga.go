package behave

import (
	"fmt"
	"strings"

	"analogyield/internal/core"
)

// VAOptions configures Verilog-A generation.
type VAOptions struct {
	ModuleName string // default "ota_behav"
	// Control is the $table_model control string per dimension
	// (default "3E", the paper's choice).
	Control string
	// ParamsFile is the output file the module writes the interpolated
	// design parameters to (default "params.dat", as in the paper).
	ParamsFile string
}

func (o VAOptions) withDefaults() VAOptions {
	if o.ModuleName == "" {
		o.ModuleName = "ota_behav"
	}
	if o.Control == "" {
		o.Control = "3E"
	}
	if o.ParamsFile == "" {
		o.ParamsFile = "params.dat"
	}
	return o
}

// GenerateVerilogA renders the paper's §4.4 behavioural module for a
// built model. The emitted module expects the .tbl data files written by
// Model.Save in its working directory.
func GenerateVerilogA(m *core.Model, opts VAOptions) string {
	o := opts.withDefaults()
	perf0 := m.ObjectiveNames[0]
	perf1 := m.ObjectiveNames[1]
	short0 := core.TrimUnitSuffix(perf0) // e.g. "gain"
	short1 := core.TrimUnitSuffix(perf1) // e.g. "pm"
	ctrl2 := o.Control + "," + o.Control

	var b strings.Builder
	fmt.Fprintf(&b, "// Combined performance and variation behavioural model.\n")
	fmt.Fprintf(&b, "// Generated from a %d-point Pareto table model; interpolation\n", len(m.Points))
	fmt.Fprintf(&b, "// control %q = cubic spline, no extrapolation.\n", o.Control)
	fmt.Fprintf(&b, "`include \"constants.vams\"\n`include \"disciplines.vams\"\n\n")
	fmt.Fprintf(&b, "module %s (inp, inn, out);\n", o.ModuleName)
	fmt.Fprintf(&b, "  inout inp, inn, out;\n")
	fmt.Fprintf(&b, "  electrical inp, inn, out;\n\n")
	fmt.Fprintf(&b, "  // Required performances (the design specification).\n")
	fmt.Fprintf(&b, "  parameter real %s = %.6g;\n", short0, midpoint(m, 0))
	fmt.Fprintf(&b, "  parameter real %s = %.6g;\n", short1, midpoint(m, 1))
	fmt.Fprintf(&b, "  parameter real ro = 100e3;\n\n")
	fmt.Fprintf(&b, "  real %s_delta, %s_delta;\n", short0, short1)
	fmt.Fprintf(&b, "  real %s_prop, %s_prop;\n", short0, short1)
	fmt.Fprintf(&b, "  real gain_in_v;\n")
	fmt.Fprintf(&b, "  integer fptr;\n")
	names := make([]string, len(m.ParamNames))
	for i := range m.ParamNames {
		names[i] = fmt.Sprintf("lp%d", i+1)
	}
	fmt.Fprintf(&b, "  real %s;\n\n", strings.Join(names, ", "))
	fmt.Fprintf(&b, "  analog begin\n")
	fmt.Fprintf(&b, "    %s_delta = $table_model(%s, \"%s\", \"%s\");\n",
		short0, short0, core.DeltaFileName(perf0), o.Control)
	fmt.Fprintf(&b, "    %s_delta = $table_model(%s, \"%s\", \"%s\");\n",
		short1, short1, core.DeltaFileName(perf1), o.Control)
	fmt.Fprintf(&b, "    %s_prop = ((%s_delta/100)*%s)+%s;\n", short0, short0, short0, short0)
	fmt.Fprintf(&b, "    %s_prop = ((%s_delta/100)*%s)+%s;\n", short1, short1, short1, short1)
	fmt.Fprintf(&b, "    $display(\"Proposed %s : %%e\", %s_prop);\n", short0, short0)
	fmt.Fprintf(&b, "    $display(\"Proposed %s : %%e\", %s_prop);\n", short1, short1)
	for i, n := range names {
		fmt.Fprintf(&b, "    %s = $table_model(%s_prop, %s_prop, \"%s\", \"%s\");\n",
			n, short0, short1, core.ParamFileName(i), ctrl2)
	}
	fmt.Fprintf(&b, "    fptr = $fopen(\"%s\");\n", o.ParamsFile)
	fmt.Fprintf(&b, "    $fwrite(fptr, \"\\n Generated Design Parameters\\n \");\n")
	verbs := strings.TrimSuffix(strings.Repeat("%e ", len(names)), " ")
	fmt.Fprintf(&b, "    $fwrite(fptr, \"%s\", %s);\n", verbs, strings.Join(names, ", "))
	fmt.Fprintf(&b, "    $fclose(fptr);\n")
	fmt.Fprintf(&b, "    $display(\"params: = %s\", %s);\n", verbs, strings.Join(names, ", "))
	fmt.Fprintf(&b, "    gain_in_v = pow(10, %s_prop/20);\n", short0)
	fmt.Fprintf(&b, "    V(out) <+ V(inp)*(-gain_in_v) - I(out)*ro;\n")
	fmt.Fprintf(&b, "  end\nendmodule\n")
	return b.String()
}

func midpoint(m *core.Model, k int) float64 {
	if len(m.Points) == 0 {
		return 0
	}
	return (m.Points[0].Perf[k] + m.Points[len(m.Points)-1].Perf[k]) / 2
}
