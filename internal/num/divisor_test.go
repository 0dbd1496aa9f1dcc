package num

import (
	"math"
	"math/rand"
	"testing"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameOrNaN is sameBits that also counts any two NaNs as equal. Which
// payload survives an operation on two NaNs depends on the operand
// order the compiler picks, which Go leaves open, so the fuzz target —
// free to build NaNs with any payload — compares payload-blind.
func sameOrNaN(a, b float64) bool { return sameBits(a, b) || (a != a && b != b) }

// checkQuo compares the hoisted divisor with Go's complex division
// under eq.
func checkQuo(t *testing.T, eq func(a, b float64) bool, n, m complex128) bool {
	t.Helper()
	var d cDivisor
	d.set(m)
	got, want := d.quo(n), n/m
	if !eq(real(got), real(want)) || !eq(imag(got), imag(want)) {
		t.Errorf("(%v)/(%v): hoisted %v (%#x, %#x), n/m %v (%#x, %#x)", n, m,
			got, math.Float64bits(real(got)), math.Float64bits(imag(got)),
			want, math.Float64bits(real(want)), math.Float64bits(imag(want)))
		return false
	}
	return true
}

// TestCDivisorMatchesDivision divides every pair of complex numbers
// built from signed zeros, infinities, NaN, subnormals, the extremes of
// the normal range and ordinary values — so every branch of Smith's
// algorithm and every C99 recovery case runs — and then a seeded
// random sweep across the exponent range.
func TestCDivisorMatchesDivision(t *testing.T) {
	parts := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -3, 7e-3,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
		math.SmallestNonzeroFloat64 * 3, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1e154, -1e-154,
	}
	var zs []complex128
	for _, re := range parts {
		for _, im := range parts {
			zs = append(zs, complex(re, im))
		}
	}
	failures := 0
	for _, m := range zs {
		for _, n := range zs {
			if !checkQuo(t, sameBits, n, m) {
				if failures++; failures > 10 {
					t.Fatal("too many mismatches")
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	part := func() float64 {
		return math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1050)
	}
	for i := 0; i < 200000; i++ {
		if !checkQuo(t, sameBits, complex(part(), part()), complex(part(), part())) {
			return
		}
	}
}

func FuzzCDivisorMatchesDivision(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, -4.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.Inf(1), 1.0, 1e-310, 0.0)
	f.Add(1.0, math.NaN(), math.Inf(-1), 2.0)
	f.Fuzz(func(t *testing.T, nr, ni, mr, mi float64) {
		checkQuo(t, sameOrNaN, complex(nr, ni), complex(mr, mi))
	})
}
