// Package pareto extracts the non-dominated set — the Pareto front —
// from a multi-objective evaluation archive, and checks a claimed front
// against the archive.
//
// The paper's step 3.3 defines the front by the two conditions (a) all
// members are mutually non-dominated and (b) every non-member is
// dominated by at least one member; Front implements exactly that.
package pareto

import (
	"fmt"
	"math"
)

// Dominates reports whether objective vector a dominates b: a is at
// least as good in every objective and strictly better in at least one.
// maximize[k] selects the sense of objective k.
func Dominates(a, b []float64, maximize []bool) bool {
	if len(a) != len(b) || len(a) != len(maximize) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d/%d/%d", len(a), len(b), len(maximize)))
	}
	strictly := false
	for k := range a {
		av, bv := a[k], b[k]
		if !maximize[k] {
			av, bv = -av, -bv
		}
		if av < bv {
			return false
		}
		if av > bv {
			strictly = true
		}
	}
	return strictly
}

// Front returns the indices of the non-dominated points, in input order.
// Points with any NaN objective are treated as dominated (excluded).
// Two-objective archives take the O(n log n) planar-maxima path (see
// kung.go); other dimensions use the all-pairs test.
func Front(points [][]float64, maximize []bool) []int {
	if len(maximize) == 2 {
		return front2(points, maximize)
	}
	return frontNaive(points, maximize)
}

// frontNaive is the all-pairs front extraction, kept as the d≠2 path
// and as the reference implementation the fast path is property-tested
// against.
func frontNaive(points [][]float64, maximize []bool) []int {
	var out []int
	for i, p := range points {
		if hasNaN(p) {
			continue
		}
		dominated := false
		for j, q := range points {
			if i == j || hasNaN(q) {
				continue
			}
			if Dominates(q, p, maximize) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func hasNaN(p []float64) bool {
	for _, v := range p {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// Verify checks the paper's two front conditions against an archive:
// (a) members are mutually non-dominated, (b) every non-member is
// dominated by at least one member. It returns a descriptive error on
// the first violation.
func Verify(points [][]float64, frontIdx []int, maximize []bool) error {
	inFront := make(map[int]bool, len(frontIdx))
	for _, i := range frontIdx {
		inFront[i] = true
	}
	for _, i := range frontIdx {
		for _, j := range frontIdx {
			if i != j && Dominates(points[i], points[j], maximize) {
				return fmt.Errorf("pareto: front member %d dominates member %d", i, j)
			}
		}
	}
	for i := range points {
		if inFront[i] || hasNaN(points[i]) {
			continue
		}
		dominated := false
		for _, j := range frontIdx {
			if Dominates(points[j], points[i], maximize) {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("pareto: non-member %d is not dominated by any front member", i)
		}
	}
	return nil
}
