// Pivot-reuse refactorisation. Monte Carlo sampling and Newton
// iteration perturb matrix *values* while the *structure* (and, for
// small perturbations, the natural pivot order) stays put. RefactorInto
// exploits that: it repeats the elimination of a reference
// factorisation's pivot order without searching for pivots or swapping
// rows, and falls back to a full partial-pivot FactorInto whenever the
// reused order turns out to be numerically unstable for the new values.
// The AC sweep's planned elimination (CPlan, plan.go) reuses a pivot
// order under the same three checks.
//
// Stability is guarded by three checks that cost no extra pass over the
// input (MNA matrices mix units — conductances ~1e-3 S, gmin 1e-12 S,
// source-branch entries ~1 — so all three are scale-invariant rather
// than thresholds against max|a_ij|). Each depends only on the input
// matrix and the reference pivot order, never on scheduling, so a
// caller that derives its reference deterministically gets bit-identical
// results for any worker count:
//
//  1. every reused pivot must be nonzero and non-NaN;
//  2. every elimination multiplier must satisfy |l_ik| ≤ MultLimit —
//     partial pivoting guarantees |l| ≤ 1, so a large multiplier means
//     the reused order picked a pivot far smaller than its column and
//     element growth is imminent;
//  3. the growth factor max|u_ij| / max_k|u_kk| must stay below
//     GrowthLimit: entries that dwarf every pivot are exactly what
//     back-substitution cannot divide away accurately.
package num

import "math"

// MultLimit bounds the elimination multipliers RefactorInto accepts
// before abandoning the reused pivot order. Full partial pivoting keeps
// |l| ≤ 1; values slightly above 1 arise when a perturbation flips a
// near-tie between pivot candidates and are harmless, so the limit only
// needs to reject genuinely unpivoted eliminations.
const MultLimit = 1e3

// GrowthLimit bounds the ratio of the largest |u_ij| to the largest
// pivot magnitude tolerated by RefactorInto: growth g costs about
// log10(g) of the 16 significant digits of a float64 in the
// back-substitution, so 1e6 keeps ~10 digits — far tighter than the
// Newton and AC tolerances downstream.
const GrowthLimit = 1e6

// RefactorInto refactors a into f's buffers reusing the pivot order of
// ref — typically the full partial-pivot factorisation of a nearby
// matrix with the same structure (the previous Newton iterate, the
// nominal Monte Carlo sample).
// ref may be f itself, chaining the reuse. When ref holds no valid
// factorisation of the right order, or the reused order fails the
// stability checks above, it falls back to a full FactorInto. The
// returned reused flag reports whether the pivot order was reused; the
// fallback path is deterministic in a and ref alone.
func (f *LU) RefactorInto(a *Matrix, ref *LU) (reused bool, err error) {
	n := a.N
	if ref == nil || !ref.ok || ref.n != n {
		return false, f.FactorInto(a)
	}
	piv := ref.piv
	sign := ref.sign
	f.resize(n) // no-op when f == ref
	f.ok = false
	lu := f.lu
	// Load a with the reference row order applied up front: no swaps
	// during elimination.
	for i := 0; i < n; i++ {
		copy(lu[i*n:i*n+n], a.Data[piv[i]*n:piv[i]*n+n])
	}
	// Growth tracking rides on values while they are still in registers:
	// row 0 is final before elimination starts; row k+1 becomes final
	// during step k (later steps touch only rows below it), so its max is
	// folded as the peeled first iteration of each step writes it. No
	// separate pass over the factors is needed.
	maxU, maxPiv := 0.0, 0.0
	for _, v := range lu[:n] {
		if v < 0 {
			v = -v
		}
		if v > maxU {
			maxU = v
		}
	}
	for k := 0; k < n; k++ {
		rowK := lu[k*n : k*n+n]
		pivot := rowK[k]
		pa := math.Abs(pivot)
		if !(pa > 0) {
			return false, f.FactorInto(a) // zero or NaN pivot
		}
		if pa > maxPiv {
			maxPiv = pa
		}
		if k+1 < n {
			// Peeled i = k+1: this row's values are final after this
			// update — fold the growth maximum as they are written.
			rowI := lu[(k+1)*n : (k+1)*n+n]
			l := rowI[k] / pivot
			if !(l >= -MultLimit && l <= MultLimit) {
				return false, f.FactorInto(a) // unstable (or NaN) multiplier
			}
			rowI[k] = l
			if l == 0 {
				for _, v := range rowI[k+1:] {
					if v < 0 {
						v = -v
					}
					if v > maxU {
						maxU = v
					}
				}
			} else {
				for j := k + 1; j < n; j++ {
					w := rowI[j] - l*rowK[j]
					rowI[j] = w
					if w < 0 {
						w = -w
					}
					if w > maxU {
						maxU = w
					}
				}
			}
		}
		for i := k + 2; i < n; i++ {
			l := lu[i*n+k] / pivot
			if !(l >= -MultLimit && l <= MultLimit) {
				return false, f.FactorInto(a) // unstable (or NaN) multiplier
			}
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	if !(maxU <= GrowthLimit*maxPiv) {
		return false, f.FactorInto(a) // runaway element growth
	}
	if f != ref {
		copy(f.piv, piv)
	}
	f.sign = sign
	f.ok = true
	return true, nil
}
