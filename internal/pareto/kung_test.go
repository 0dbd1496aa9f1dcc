package pareto

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randArchive builds a random two-objective archive. With clustered
// coordinate grids it produces plenty of exact ties and duplicates, and
// it sprinkles NaN rows — the cases where the fast path could diverge
// from the all-pairs reference.
func randArchive(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		var x, y float64
		if rng.Intn(2) == 0 {
			// Snap to a coarse grid: exact ties and duplicates.
			x = float64(rng.Intn(8))
			y = float64(rng.Intn(8))
		} else {
			x = rng.NormFloat64() * 10
			y = rng.NormFloat64() * 10
		}
		if rng.Intn(12) == 0 {
			x = math.NaN()
		}
		if rng.Intn(12) == 0 {
			y = math.NaN()
		}
		pts[i] = []float64{x, y}
	}
	return pts
}

// TestFront2MatchesNaive: the planar-maxima front must equal the
// all-pairs front exactly — same members, same order — for every
// objective-sense combination, including tie-heavy and NaN-bearing
// archives.
func TestFront2MatchesNaive(t *testing.T) {
	senses := [][]bool{{true, true}, {false, false}, {true, false}, {false, true}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randArchive(rng, 1+rng.Intn(120))
		max := senses[rng.Intn(len(senses))]
		fast := Front(pts, max)
		slow := frontNaive(pts, max)
		if len(fast) == 0 && len(slow) == 0 {
			return true
		}
		return reflect.DeepEqual(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFront2SatisfiesVerify: the fast front passes the paper's two
// front conditions directly.
func TestFront2SatisfiesVerify(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randArchive(rng, 2+rng.Intn(200))
		front := Front(pts, []bool{true, true})
		return Verify(pts, front, []bool{true, true}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFront2Duplicates: identical points do not dominate each other, so
// every copy of a front point must survive.
func TestFront2Duplicates(t *testing.T) {
	pts := [][]float64{{5, 5}, {5, 5}, {4, 6}, {4, 6}, {3, 3}, {5, 5}}
	got := Front(pts, []bool{true, true})
	want := []int{0, 1, 2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Front = %v, want %v", got, want)
	}
}

// TestFront2AllNaN: an archive of only NaN rows has an empty front on
// both paths.
func TestFront2AllNaN(t *testing.T) {
	pts := [][]float64{{math.NaN(), 1}, {2, math.NaN()}}
	if got := Front(pts, []bool{true, true}); len(got) != 0 {
		t.Errorf("Front = %v, want empty", got)
	}
}
