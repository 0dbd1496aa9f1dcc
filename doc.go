// Package analogyield reproduces "A New Approach for Combining Yield
// and Performance in Behavioural Models for Analogue Integrated
// Circuits" (Ali, Wilcock, Wilson, Brown — DATE 2008): a flow that
// builds a combined performance + statistical-variation behavioural
// model for an analogue circuit by multi-objective (weight-based GA)
// optimisation, Pareto-front extraction, per-point Monte Carlo analysis
// and cubic-spline table models, then answers yield-targeted design
// queries from the tables alone.
//
// The implementation lives under internal/: the simulator substrate
// (num, mos, circuit, netlist, analysis, measure), the statistical
// machinery (process, montecarlo, yield), the optimisation stack
// (wbga, pareto), the table models (spline, table), the paper's flow
// (core), its benchmark circuit (ota), the behavioural model and
// Verilog-A generator (behave), and the §5 filter application (filter).
// See DESIGN.md for the full inventory and EXPERIMENTS.md for the
// paper-versus-measured record; bench_test.go regenerates every table
// and figure of the paper's evaluation.
package analogyield
