// Two-objective fast path. Kung, Luccio and Preparata showed the
// maxima of a planar point set — exactly the Pareto front of a
// two-objective archive — can be found in O(n log n): sort by the first
// coordinate and sweep, keeping a point iff its second coordinate beats
// every point sorted before it. The GA archives this repository builds
// are two-objective (yield, performance) and reach 10^4 points, where
// the all-pairs test in frontNaive is orders of magnitude more
// comparisons.
//
// Care is needed to preserve frontNaive's weak-dominance semantics:
// duplicate points do not dominate each other (all copies survive), and
// a point with equal x survives only if its y is strictly better than
// the running maximum from strictly larger x. The sweep therefore walks
// equal-x groups as a unit.
package pareto

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// planar is a sign-normalised two-objective point (both coordinates
// maximised) tagged with its archive index.
type planar struct {
	x, y float64
	idx  int
}

// planarize projects a two-objective archive onto maximise-both planar
// points, dropping NaN rows. The result is NOT yet sorted.
func planarize(points [][]float64, maximize []bool) []planar {
	sx, sy := 1.0, 1.0
	if !maximize[0] {
		sx = -1
	}
	if !maximize[1] {
		sy = -1
	}
	pts := make([]planar, 0, len(points))
	for i, p := range points {
		if len(p) != 2 {
			panic(fmt.Sprintf("pareto: dimension mismatch %d/2", len(p)))
		}
		if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
			continue
		}
		pts = append(pts, planar{sx * p[0], sy * p[1], i})
	}
	return pts
}

// cmpPlanar orders by (x desc, y desc, idx asc) — the total order every
// sweep below relies on. The idx tiebreak makes the order unique, so an
// unstable sort is fine.
func cmpPlanar(a, b planar) int {
	if a.x != b.x {
		if a.x > b.x {
			return -1
		}
		return 1
	}
	if a.y != b.y {
		if a.y > b.y {
			return -1
		}
		return 1
	}
	return a.idx - b.idx
}

// sweepMaxima returns the archive indices of the maxima of sorted
// points. best tracks the max y over strictly larger x; a point
// survives iff it has the best y of its equal-x group and that y
// strictly beats best — matching weak dominance exactly.
func sweepMaxima(pts []planar) []int {
	var front []int
	best := math.Inf(-1)
	for i := 0; i < len(pts); {
		j := i
		for j < len(pts) && pts[j].x == pts[i].x {
			j++
		}
		if gmax := pts[i].y; gmax > best { // groups are y-descending
			for k := i; k < j && pts[k].y == gmax; k++ {
				front = append(front, pts[k].idx)
			}
			best = gmax
		}
		i = j
	}
	return front
}

// front2 is the fast two-objective Front: O(n log n) worst case, near
// O(n) on typical archives. Before sorting, one linear pass finds the
// point maximising x+y — any such point is itself on the front — and
// drops everything it strictly dominates, which on a random archive is
// the bulk of the points; only the surviving margin pays for the sort.
func front2(points [][]float64, maximize []bool) []int {
	pts := planarize(points, maximize)
	bestI, bestS := -1, math.Inf(-1)
	for i, p := range pts {
		if s := p.x + p.y; s > bestS {
			bestS, bestI = s, i
		}
	}
	if bestI >= 0 { // every sum NaN (±Inf mixes): skip the prune
		ps := pts[bestI]
		kept := pts[:0]
		for _, p := range pts {
			if p.x <= ps.x && p.y <= ps.y && (p.x < ps.x || p.y < ps.y) {
				continue // strictly dominated by ps; ties survive
			}
			kept = append(kept, p)
		}
		pts = kept
	}
	slices.SortFunc(pts, cmpPlanar)
	front := sweepMaxima(pts)
	sort.Ints(front) // input order, like frontNaive
	return front
}
