// Package yield implements the specification and guard-banding
// arithmetic of the paper's yield-targeted design step: given a required
// performance bound and the ±Δ% variation read from the variation table,
// compute the new (guard-banded) performance target that still meets the
// bound at the process extremes, then estimate yield against a spec.
package yield

import (
	"fmt"
	"math"
)

// Sense is the direction of a specification bound.
type Sense int

const (
	// AtLeast means the performance must be >= Bound (e.g. gain > 50 dB).
	AtLeast Sense = iota
	// AtMost means the performance must be <= Bound (e.g. power < 1 mW).
	AtMost
)

// String names the sense.
func (s Sense) String() string {
	if s == AtMost {
		return "<="
	}
	return ">="
}

// Spec is one performance requirement.
type Spec struct {
	Name  string
	Sense Sense
	Bound float64
}

// Pass reports whether a measured value satisfies the spec.
func (s Spec) Pass(v float64) bool {
	if s.Sense == AtMost {
		return v <= s.Bound
	}
	return v >= s.Bound
}

// String renders the spec for reports.
func (s Spec) String() string {
	return fmt.Sprintf("%s %s %g", s.Name, s.Sense, s.Bound)
}

// GuardBand returns the new performance target that guarantees the spec
// at the ±deltaPct process extremes, exactly the paper's Table 3
// arithmetic: a required gain of 50 dB with Δ = 0.51% becomes a target
// of 50·(1 + 0.51/100) = 50.26 dB, so that even the −Δ extreme
// (50.26·(1−0.0051) ≈ 50.0) still meets the bound.
func GuardBand(spec Spec, deltaPct float64) float64 {
	if deltaPct < 0 {
		deltaPct = -deltaPct
	}
	f := deltaPct / 100
	if spec.Sense == AtMost {
		return spec.Bound * (1 - f)
	}
	return spec.Bound * (1 + f)
}

// Range returns the ±deltaPct interval around a nominal value — the
// "actual gain may vary from 49.75 dB to 50.26 dB" statement of the
// paper's worked example.
func Range(nominal, deltaPct float64) (lo, hi float64) {
	f := deltaPct / 100
	if f < 0 {
		f = -f
	}
	a := nominal * (1 - f)
	b := nominal * (1 + f)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// PredictNormal estimates the probability that a single performance
// meets its spec without running Monte Carlo, from the quantities the
// behavioural model already stores: the nominal performance at the
// selected design and its variation figure deltaPct = 100·3σ/|µ|.
// Inverting that definition gives σ = |nominal|·deltaPct/300; under the
// variation model's normal assumption the pass probability is the
// Gaussian tail on the passing side of the bound. A zero-width
// distribution degenerates to 1 or 0 according to Spec.Pass.
func PredictNormal(spec Spec, nominal, deltaPct float64) float64 {
	sigma := math.Abs(nominal) * math.Abs(deltaPct) / 300
	if sigma == 0 {
		if spec.Pass(nominal) {
			return 1
		}
		return 0
	}
	z := (nominal - spec.Bound) / sigma
	if spec.Sense == AtMost {
		z = -z
	}
	return normCDF(z)
}

// PredictJoint multiplies per-spec PredictNormal probabilities — the
// independence approximation the guard-banding flow already makes when
// it treats each performance's Δ% separately. specs[k] is evaluated
// against nominal[k]/deltaPct[k].
func PredictJoint(specs []Spec, nominal, deltaPct []float64) (float64, error) {
	if len(specs) != len(nominal) || len(specs) != len(deltaPct) {
		return 0, fmt.Errorf("yield: %d specs, %d nominals, %d deltas", len(specs), len(nominal), len(deltaPct))
	}
	p := 1.0
	for k, s := range specs {
		p *= PredictNormal(s, nominal[k], deltaPct[k])
	}
	return p, nil
}

// normCDF is the standard normal CDF Φ(z).
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// FromSamples estimates yield from Monte Carlo metric vectors: the
// fraction of samples whose cols[k]-th metric passes specs[k] for all k.
// Nil (failed) samples count as failing.
func FromSamples(samples [][]float64, specs []Spec, cols []int) (float64, error) {
	if len(specs) != len(cols) {
		return 0, fmt.Errorf("yield: %d specs but %d column indices", len(specs), len(cols))
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("yield: no samples")
	}
	pass := 0
sample:
	for _, s := range samples {
		if s == nil {
			continue
		}
		for k, spec := range specs {
			c := cols[k]
			if c < 0 || c >= len(s) {
				return 0, fmt.Errorf("yield: column %d out of range (sample width %d)", c, len(s))
			}
			if !spec.Pass(s[c]) {
				continue sample
			}
		}
		pass++
	}
	return float64(pass) / float64(len(samples)), nil
}

// FromWeightedSamples is the importance-sampling analogue of
// FromSamples: the self-normalised estimate Σ wᵢ·passᵢ / Σ wᵢ, where
// the weights are the likelihood ratios p/q the sampler reported
// (montecarlo.Result.Weights). Nil (failed) samples keep their weight
// in the denominator — the same pessimistic convention FromSamples uses
// for the sample count. A nil weights slice selects unit weights,
// reducing exactly to FromSamples.
func FromWeightedSamples(samples [][]float64, weights []float64, specs []Spec, cols []int) (float64, error) {
	if weights == nil {
		return FromSamples(samples, specs, cols)
	}
	if len(weights) != len(samples) {
		return 0, fmt.Errorf("yield: %d samples but %d weights", len(samples), len(weights))
	}
	if len(specs) != len(cols) {
		return 0, fmt.Errorf("yield: %d specs but %d column indices", len(specs), len(cols))
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("yield: no samples")
	}
	var sw, swPass float64
sample:
	for i, s := range samples {
		sw += weights[i]
		if s == nil {
			continue
		}
		for k, spec := range specs {
			c := cols[k]
			if c < 0 || c >= len(s) {
				return 0, fmt.Errorf("yield: column %d out of range (sample width %d)", c, len(s))
			}
			if !spec.Pass(s[c]) {
				continue sample
			}
		}
		swPass += weights[i]
	}
	if sw <= 0 {
		return 0, fmt.Errorf("yield: total importance weight %g is not positive", sw)
	}
	return swPass / sw, nil
}

// WilsonInterval returns the 95% Wilson score confidence interval for a
// yield estimated from k passes out of n Monte Carlo samples. The paper
// reports "100% yield at 500 samples"; the Wilson interval quantifies
// what that actually guarantees (e.g. 500/500 → [0.9924, 1.0]).
func WilsonInterval(passes, samples int) (lo, hi float64, err error) {
	if samples <= 0 {
		return 0, 0, fmt.Errorf("yield: non-positive sample count %d", samples)
	}
	if passes < 0 || passes > samples {
		return 0, 0, fmt.Errorf("yield: %d passes out of %d samples", passes, samples)
	}
	const z = 1.959963984540054 // 97.5th percentile of the normal
	n := float64(samples)
	p := float64(passes) / n
	denom := 1 + z*z/n
	centre := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo = centre - half
	hi = centre + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}
