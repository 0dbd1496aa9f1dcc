package yield

import (
	"math"
	"testing"
)

func TestFromWeightedSamples(t *testing.T) {
	specs := []Spec{{Name: "m", Sense: AtLeast, Bound: 2}}
	cols := []int{0}
	samples := [][]float64{{1}, {2}, {3}, nil}
	weights := []float64{1, 2, 3, 4}
	// Passing weight 5 of total 10 (the failed sample's weight stays in
	// the denominator).
	y, err := FromWeightedSamples(samples, weights, specs, cols)
	if err != nil {
		t.Fatal(err)
	}
	if y != 0.5 {
		t.Errorf("weighted yield = %g, want 0.5", y)
	}
	// Nil weights must agree with FromSamples exactly.
	yw, err := FromWeightedSamples(samples, nil, specs, cols)
	if err != nil {
		t.Fatal(err)
	}
	yu, err := FromSamples(samples, specs, cols)
	if err != nil {
		t.Fatal(err)
	}
	if yw != yu {
		t.Errorf("nil-weight FromWeightedSamples %g != FromSamples %g", yw, yu)
	}
	// Uniform non-unit weights must too (self-normalisation).
	yc, err := FromWeightedSamples(samples, []float64{7, 7, 7, 7}, specs, cols)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(yc-yu) > 1e-15 {
		t.Errorf("uniform-weight yield %g != unweighted %g", yc, yu)
	}
}

func TestFromWeightedSamplesErrors(t *testing.T) {
	specs := []Spec{{Sense: AtLeast, Bound: 0}}
	cols := []int{0}
	if _, err := FromWeightedSamples([][]float64{{1}}, []float64{1, 2}, specs, cols); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromWeightedSamples(nil, []float64{}, specs, cols); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, err := FromWeightedSamples([][]float64{{1}}, []float64{0}, specs, cols); err == nil {
		t.Error("zero total weight accepted")
	}
	if _, err := FromWeightedSamples([][]float64{{1}}, []float64{1}, specs, []int{3}); err == nil {
		t.Error("out-of-range column accepted")
	}
}
