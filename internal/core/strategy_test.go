package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"analogyield/internal/montecarlo"
	"analogyield/internal/process"
	"analogyield/internal/yield"
)

// TestFlowConfigRejectsUnknownStrategy: a flow runs plain Monte Carlo
// only, so of the strategy names a flow request may carry just "" and
// "naive" pass; the verification estimators and junk alike are refused
// with ErrMCStrategy naming what was asked for.
func TestFlowConfigRejectsUnknownStrategy(t *testing.T) {
	for _, name := range []string{"", "naive"} {
		if err := CheckFlowMCStrategy(name); err != nil {
			t.Errorf("strategy %q refused: %v", name, err)
		}
	}
	for _, name := range []string{"is", "surrogate", "is+surrogate", "qmc", "Naive"} {
		err := CheckFlowMCStrategy(name)
		if !errors.Is(err, ErrMCStrategy) || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("strategy %q: err = %v, want ErrMCStrategy naming it", name, err)
		}
	}
}

func TestVerifyDesignYieldMC(t *testing.T) {
	// Delegation: the naive MC verification path must match the
	// original API exactly.
	genes := []float64{0.5, 0, 0.5}
	spec0 := yield.Spec{Name: "gain_db", Sense: yield.AtLeast, Bound: 40}
	spec1 := yield.Spec{Name: "pm_deg", Sense: yield.AtLeast, Bound: 60}
	a, err := VerifyDesignYield(context.Background(), synthProblem{}, process.C35(), genes, spec0, spec1, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != "naive" || a.FullEvals != 200 {
		t.Errorf("naive verification diagnostics: %+v", a)
	}
	b, err := VerifyDesignYieldMC(context.Background(), synthProblem{}, process.C35(), genes, spec0, spec1, 200, 7, montecarlo.StrategyIS)
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy != "is" || b.ESS <= 0 {
		t.Errorf("IS verification diagnostics: %+v", b)
	}
	// Both estimators agree the comfortable spec is met.
	if a.Yield < 0.9 || b.Yield < 0.9 {
		t.Errorf("yields %g (naive) / %g (is), want both near 1", a.Yield, b.Yield)
	}
}
