package main

import "testing"

// TestJudge holds the A/B rule on fixed inputs of ten pairs.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	// Spread wider than 10% around 100: q1 91.25, q3 108.75.
	wide := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	// High base values win by a little, low ones lose by a lot: head's
	// median is far worse, but it loses only 4 of 10 pairs.
	fourLost := []float64{10, 9, 8, 7, 6, 5, 1, 2, 3, 4}
	fourLostHead := []float64{9.9, 8.9, 7.9, 6.9, 5.9, 4.9, 100, 100, 100, 100}
	zeros, ones := make([]float64, 10), []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for _, c := range []struct {
		name         string
		better       string
		base, head   []float64
		fail         bool
		wins, losses int
	}{
		{"A/A", "lower", base, base, false, 0, 0},
		{"10% slower, every pair lost", "lower", base, scaled(base, 1.1), true, 0, 10},
		{"10% slower inside the base IQR", "lower", wide, scaled(wide, 1.1), false, 0, 10},
		{"4 of 10 pairs lost", "lower", fourLost, fourLostHead, false, 6, 4},
		{"0 to 1 allocs/op", "lower", zeros, ones, true, 0, 10},
		{"missing from head", "lower", base, nil, true, 0, 0},
		{"missing from some head pairs", "lower", base, base[:9], true, 0, 0},
		{"no direction, twice the base", "", base, scaled(base, 2), false, 0, 0},
		{"higher is better, 10% lower", "higher", base, scaled(base, 0.9), true, 0, 10},
		{"higher is better, 10% higher", "higher", base, scaled(base, 1.1), false, 10, 0},
		{"4% slower, every pair lost", "lower", base, scaled(base, 1.04), false, 0, 10},
	} {
		r := &row{Better: c.better}
		judge(r, c.base, c.head)
		if r.Fail != c.fail || r.Wins != c.wins || r.Losses != c.losses {
			t.Errorf("%s: fail %v, wins %d, losses %d; want %v, %d, %d", c.name, r.Fail, r.Wins, r.Losses, c.fail, c.wins, c.losses)
		}
		if (r.Head == nil) != (len(c.head) != len(c.base)) {
			t.Errorf("%s: head quartiles %v", c.name, r.Head)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, [3]float64{91.25, 100, 108.75}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
