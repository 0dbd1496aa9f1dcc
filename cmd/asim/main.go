// Command asim is the mini circuit simulator: it parses a SPICE-like
// netlist and runs operating-point, AC, DC-sweep or transient analysis,
// printing results as whitespace-separated columns.
//
// Usage:
//
//	asim -op circuit.sp
//	asim -ac 1k:1g:20 -probe out circuit.sp
//	asim -dc VG:0:3.3:34 -probe d circuit.sp
//	asim -tran 1u:1n -probe out circuit.sp
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/netlist"
	"analogyield/internal/num"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "asim:", err)
	os.Exit(1)
}

// Work counters the -perf flag prints on stderr.
var statAnalyses, statNewton, statSolves int

func main() {
	var (
		doOP  = flag.Bool("op", false, "print the DC operating point")
		doDev = flag.Bool("devices", false, "with -op: print the MOSFET bias table")
		acArg = flag.String("ac", "", "AC sweep: fstart:fstop:pointsPerDecade")
		dcArg = flag.String("dc", "", "DC sweep: source:start:stop:points")
		trArg = flag.String("tran", "", "transient: tstop:tstep")
		nzArg = flag.String("noise", "", "noise analysis: outnode:fstart:fstop:pointsPerDecade")
		probe = flag.String("probe", "", "comma-separated node names to print (default: all)")
		perf  = flag.Bool("perf", false, "report wall time and heap allocations of the analyses")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asim [flags] netlist.sp")
		flag.PrintDefaults()
		os.Exit(2)
	}
	n, err := netlist.ParseFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, n.Stats())

	probes := probeNodes(n, *probe)

	// SIGINT aborts between analyses (each single analysis is short;
	// the checks bound latency to one analysis).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var m0 runtime.MemStats
	t0 := time.Now()
	if *perf {
		runtime.ReadMemStats(&m0)
	}
	ran := false
	steps := []struct {
		enabled bool
		run     func()
	}{
		{*doOP, func() { runOP(n, probes, *doDev) }},
		{*acArg != "", func() { runAC(n, probes, *acArg) }},
		{*dcArg != "", func() { runDC(n, probes, *dcArg) }},
		{*trArg != "", func() { runTran(n, probes, *trArg) }},
		{*nzArg != "", func() { runNoise(n, *nzArg) }},
	}
	for _, s := range steps {
		if !s.enabled {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "asim: interrupted")
			os.Exit(130)
		}
		s.run()
		ran = true
	}
	if !ran {
		runOP(n, probes, *doDev)
	}
	if *perf {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		fmt.Fprintf(os.Stderr, "# perf: %.3fms wall, %d heap allocs, %.1f KiB allocated\n",
			float64(time.Since(t0).Microseconds())/1000,
			m1.Mallocs-m0.Mallocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		fmt.Fprintf(os.Stderr, "# metrics: analyses=%d newton_iterations=%d linear_solves=%d\n",
			statAnalyses, statNewton, statSolves)
	}
}

func probeNodes(n *circuit.Netlist, arg string) []string {
	if arg == "" {
		var all []string
		for i := 0; i < n.NumNodes(); i++ {
			all = append(all, n.NodeName(i))
		}
		return all
	}
	var out []string
	for _, p := range strings.Split(arg, ",") {
		p = strings.TrimSpace(p)
		if _, ok := n.NodeIndex(p); !ok {
			fail(fmt.Errorf("unknown probe node %q", p))
		}
		out = append(out, p)
	}
	return out
}

func runOP(n *circuit.Netlist, probes []string, devices bool) {
	op, err := analysis.OP(n, nil)
	if err != nil {
		fail(err)
	}
	statAnalyses++
	statNewton += op.Iterations
	statSolves += op.Iterations
	fmt.Printf("# operating point (%d Newton iterations)\n", op.Iterations)
	for _, node := range probes {
		v, err := op.V(node)
		if err != nil {
			fail(err)
		}
		fmt.Printf("V(%s) = %.6g\n", node, v)
	}
	if devices {
		fmt.Print(analysis.FormatDeviceReport(analysis.DeviceReport(n, op)))
	}
}

func parseTriple(arg string, name string) (a, b float64, k int) {
	parts := strings.Split(arg, ":")
	if len(parts) != 3 {
		fail(fmt.Errorf("%s wants a:b:n, got %q", name, arg))
	}
	var err error
	if a, err = netlist.ParseValue(parts[0]); err != nil {
		fail(err)
	}
	if b, err = netlist.ParseValue(parts[1]); err != nil {
		fail(err)
	}
	kk, err := strconv.Atoi(parts[2])
	if err != nil {
		fail(fmt.Errorf("%s: bad count %q", name, parts[2]))
	}
	return a, b, kk
}

func runAC(n *circuit.Netlist, probes []string, arg string) {
	fStart, fStop, ppd := parseTriple(arg, "-ac")
	op, err := analysis.OP(n, nil)
	if err != nil {
		fail(err)
	}
	res, err := analysis.ACDecade(n, op, fStart, fStop, ppd)
	if err != nil {
		fail(err)
	}
	statAnalyses++
	statNewton += op.Iterations
	statSolves += len(res.Freqs)
	fmt.Printf("# freq_hz")
	for _, p := range probes {
		fmt.Printf(" mag_db(%s) phase_deg(%s)", p, p)
	}
	fmt.Println()
	cols := make([][]complex128, len(probes))
	for i, p := range probes {
		if cols[i], err = res.V(p); err != nil {
			fail(err)
		}
	}
	for k, f := range res.Freqs {
		fmt.Printf("%.6g", f)
		for i := range probes {
			fmt.Printf(" %.4f %.3f", measure.GainDB(cols[i][k]), measure.PhaseDeg(cols[i][k]))
		}
		fmt.Println()
	}
}

func runDC(n *circuit.Netlist, probes []string, arg string) {
	parts := strings.Split(arg, ":")
	if len(parts) != 4 {
		fail(fmt.Errorf("-dc wants source:start:stop:points, got %q", arg))
	}
	src := parts[0]
	start, err := netlist.ParseValue(parts[1])
	if err != nil {
		fail(err)
	}
	stop, err := netlist.ParseValue(parts[2])
	if err != nil {
		fail(err)
	}
	npts, err := strconv.Atoi(parts[3])
	if err != nil || npts < 2 {
		fail(fmt.Errorf("-dc: bad point count %q", parts[3]))
	}
	pts, err := analysis.DCSweep(n, src, num.Linspace(start, stop, npts), nil)
	if err != nil {
		fail(err)
	}
	statAnalyses++
	statSolves += len(pts)
	fmt.Printf("# %s", src)
	for _, p := range probes {
		fmt.Printf(" V(%s)", p)
	}
	fmt.Println()
	for _, pt := range pts {
		fmt.Printf("%.6g", pt.Value)
		for _, p := range probes {
			v, err := pt.OP.V(p)
			if err != nil {
				fail(err)
			}
			fmt.Printf(" %.6g", v)
		}
		fmt.Println()
	}
}

func runNoise(n *circuit.Netlist, arg string) {
	parts := strings.Split(arg, ":")
	if len(parts) != 4 {
		fail(fmt.Errorf("-noise wants outnode:fstart:fstop:ppd, got %q", arg))
	}
	outNode := parts[0]
	fStart, err := netlist.ParseValue(parts[1])
	if err != nil {
		fail(err)
	}
	fStop, err := netlist.ParseValue(parts[2])
	if err != nil {
		fail(err)
	}
	ppd, err := strconv.Atoi(parts[3])
	if err != nil || ppd < 1 {
		fail(fmt.Errorf("-noise: bad points per decade %q", parts[3]))
	}
	op, err := analysis.OP(n, nil)
	if err != nil {
		fail(err)
	}
	decades := math.Log10(fStop / fStart)
	npts := int(math.Ceil(decades*float64(ppd))) + 1
	if npts < 2 {
		npts = 2
	}
	res, err := analysis.Noise(n, op, outNode, num.Logspace(fStart, fStop, npts))
	if err != nil {
		fail(err)
	}
	statAnalyses++
	statNewton += op.Iterations
	statSolves += len(res.Freqs)
	fmt.Printf("# freq_hz vnoise_v_per_rthz\n")
	for i, f := range res.Freqs {
		fmt.Printf("%.6g %.6g\n", f, math.Sqrt(res.OutputPSD[i]))
	}
	fmt.Printf("# integrated rms over sweep: %.6g V\n", res.TotalRMS)
}

func runTran(n *circuit.Netlist, probes []string, arg string) {
	parts := strings.Split(arg, ":")
	if len(parts) != 2 {
		fail(fmt.Errorf("-tran wants tstop:tstep, got %q", arg))
	}
	tStop, err := netlist.ParseValue(parts[0])
	if err != nil {
		fail(err)
	}
	tStep, err := netlist.ParseValue(parts[1])
	if err != nil {
		fail(err)
	}
	res, err := analysis.Tran(n, analysis.TranOptions{TStop: tStop, TStep: tStep})
	if err != nil {
		fail(err)
	}
	statAnalyses++
	statSolves += len(res.Times)
	fmt.Printf("# time_s")
	for _, p := range probes {
		fmt.Printf(" V(%s)", p)
	}
	fmt.Println()
	cols := make([][]float64, len(probes))
	for i, p := range probes {
		if cols[i], err = res.V(p); err != nil {
			fail(err)
		}
	}
	// Print at most ~1000 rows to keep output usable.
	stride := int(math.Max(1, float64(len(res.Times))/1000))
	for k := 0; k < len(res.Times); k += stride {
		fmt.Printf("%.6g", res.Times[k])
		for i := range probes {
			fmt.Printf(" %.6g", cols[i][k])
		}
		fmt.Println()
	}
}
