package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var maxBoth = []bool{true, true}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		max  []bool
		want bool
	}{
		{[]float64{2, 2}, []float64{1, 1}, maxBoth, true},
		{[]float64{2, 1}, []float64{1, 2}, maxBoth, false},
		{[]float64{1, 1}, []float64{1, 1}, maxBoth, false}, // equal: no strict improvement
		{[]float64{2, 1}, []float64{1, 1}, maxBoth, true},
		{[]float64{1, 1}, []float64{2, 2}, []bool{false, false}, true}, // minimisation
		{[]float64{2, 1}, []float64{1, 2}, []bool{true, false}, true},  // mixed senses
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b, c.max); got != c.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch accepted")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2}, maxBoth)
}

func TestFrontSimple(t *testing.T) {
	// Paper Fig 2: point B is non-optimal because A dominates it.
	points := [][]float64{
		{5, 5}, // A: on the front
		{4, 4}, // B: dominated by A
		{6, 3}, // on the front (trade-off)
		{3, 6}, // on the front (trade-off)
	}
	f := Front(points, maxBoth)
	want := map[int]bool{0: true, 2: true, 3: true}
	if len(f) != 3 {
		t.Fatalf("front size = %d, want 3 (%v)", len(f), f)
	}
	for _, i := range f {
		if !want[i] {
			t.Errorf("unexpected front member %d", i)
		}
	}
}

func TestFrontExcludesNaN(t *testing.T) {
	points := [][]float64{{1, 1}, {math.NaN(), 5}}
	f := Front(points, maxBoth)
	if len(f) != 1 || f[0] != 0 {
		t.Errorf("front = %v, want [0]", f)
	}
}

func TestFrontSatisfiesPaperConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{rng.Float64() * 50, rng.Float64() * 90}
	}
	f := Front(points, maxBoth)
	if err := Verify(points, f, maxBoth); err != nil {
		t.Fatal(err)
	}
	if len(f) == 0 || len(f) == len(points) {
		t.Errorf("degenerate front size %d of %d", len(f), len(points))
	}
}

func TestFrontPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		max3 := []bool{true, false, true}
		fr := Front(pts, max3)
		return Verify(pts, fr, max3) == nil && len(fr) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVerifyDetectsViolation(t *testing.T) {
	points := [][]float64{{2, 2}, {1, 1}}
	// Claim both are on the front — but 0 dominates 1.
	if err := Verify(points, []int{0, 1}, maxBoth); err == nil {
		t.Error("Verify accepted a dominated front member")
	}
	// Claim only the dominated one — 0 is then an uncovered non-member.
	if err := Verify(points, []int{1}, maxBoth); err == nil {
		t.Error("Verify accepted an uncovered non-member")
	}
}
