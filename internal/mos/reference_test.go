package mos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"analogyield/internal/process"
)

// The reference model below is Eval as it stood before the probes
// shared their threshold and overdrive and before math.Pow was spelled
// out: eight full current evaluations per call. Eval must reproduce it
// bit for bit.

func (p Params) idsPrimitiveRef(w, l, vgs, vds, vbs float64) (id, vov, vdsat float64, sat bool) {
	le := p.leff(l)
	vto := math.Abs(p.VTO)
	arg := p.Phi - vbs
	const argMin = 0.05
	if arg < argMin {
		arg = argMin
	}
	vth := vto + p.Gamma*(math.Sqrt(arg)-math.Sqrt(p.Phi))
	nvt := 2 * p.NSub * vTherm
	x := (vgs - vth) / nvt
	switch {
	case x > 40:
		vov = vgs - vth
	case x < -40:
		vov = nvt * math.Exp(x)
	default:
		vov = nvt * math.Log1p(math.Exp(x))
	}
	vdsat = vov
	if vdsat < 1e-9 {
		vdsat = 1e-9
	}
	r := vds / vdsat
	vdse := vds / math.Pow(1+math.Pow(r, 4), 0.25)
	lambda := p.LambdaK / le
	id = p.KP * (w / le) * (vov*vdse - 0.5*vdse*vdse) * (1 + lambda*vds)
	return id, vov, vdsat, vds > vdsat
}

func (p Params) drainCurrentRef(w, l, vg, vd, vs, vb float64) float64 {
	if p.Class == process.PMOS {
		vg, vd, vs, vb = -vg, -vd, -vs, -vb
	}
	sign := 1.0
	if vd < vs {
		vd, vs = vs, vd
		sign = -1
	}
	id, _, _, _ := p.idsPrimitiveRef(w, l, vg-vs, vd-vs, vb-vs)
	if p.Class == process.PMOS {
		sign = -sign
	}
	return sign * id
}

func (p Params) evalRef(w, l, vg, vd, vs, vb float64) OP {
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("mos: non-positive geometry W=%g L=%g", w, l))
	}
	op := OP{
		Vgs: vg - vs, Vds: vd - vs, Vbs: vb - vs,
	}
	op.Id = p.drainCurrentRef(w, l, vg, vd, vs, vb)
	const h = 1e-6
	op.Gm = (p.drainCurrentRef(w, l, vg+h, vd, vs, vb) - p.drainCurrentRef(w, l, vg-h, vd, vs, vb)) / (2 * h)
	op.Gds = (p.drainCurrentRef(w, l, vg, vd+h, vs, vb) - p.drainCurrentRef(w, l, vg, vd-h, vs, vb)) / (2 * h)
	op.Gmb = (p.drainCurrentRef(w, l, vg, vd, vs, vb+h) - p.drainCurrentRef(w, l, vg, vd, vs, vb-h)) / (2 * h)

	fvg, fvd, fvs, fvb := vg, vd, vs, vb
	if p.Class == process.PMOS {
		fvg, fvd, fvs, fvb = -vg, -vd, -vs, -vb
	}
	swapped := fvd < fvs
	if swapped {
		fvd, fvs = fvs, fvd
	}
	_, vov, vdsat, sat := p.idsPrimitiveRef(w, l, fvg-fvs, fvd-fvs, fvb-fvs)
	op.Vov, op.Saturated, op.Swapped = vov, sat, swapped
	arg := p.Phi - (fvb - fvs)
	if arg < 0.05 {
		arg = 0.05
	}
	vthMag := math.Abs(p.VTO) + p.Gamma*(math.Sqrt(arg)-math.Sqrt(p.Phi))
	if p.Class == process.PMOS {
		op.Vth = -vthMag
	} else {
		op.Vth = vthMag
	}

	le := p.leff(l)
	cch := w * le * p.Cox
	ratio := (fvd - fvs) / vdsat
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	cgsInt := cch * (0.5 + ratio/6.0)
	cgdInt := cch * 0.5 * (1 - ratio)
	if swapped {
		cgsInt, cgdInt = cgdInt, cgsInt
	}
	op.Cgs = cgsInt + p.CGSO*w
	op.Cgd = cgdInt + p.CGDO*w
	op.Cgb = 0.1 * cch
	cj := p.CJ * w * p.JuncExt
	op.Csb = cj
	op.Cdb = cj
	return op
}

// sameOrNaN is sameBits that also counts any two NaNs as equal. Go
// leaves NaN payloads unspecified — math.Pow returns its own NaN where
// the spelled-out form propagates its input's — so the fuzz target,
// which feeds NaN and ±Inf voltages, compares payload-blind.
func sameOrNaN(a, b float64) bool { return sameBits(a, b) || (a != a && b != b) }

// diffOP names the first OP field where got and want differ under eq.
func diffOP(got, want OP, eq func(a, b float64) bool) string {
	fields := []struct {
		name   string
		gv, wv float64
	}{
		{"Id", got.Id, want.Id}, {"Gm", got.Gm, want.Gm}, {"Gds", got.Gds, want.Gds},
		{"Gmb", got.Gmb, want.Gmb}, {"Cgs", got.Cgs, want.Cgs}, {"Cgd", got.Cgd, want.Cgd},
		{"Cgb", got.Cgb, want.Cgb}, {"Csb", got.Csb, want.Csb}, {"Cdb", got.Cdb, want.Cdb},
		{"Vgs", got.Vgs, want.Vgs}, {"Vds", got.Vds, want.Vds}, {"Vbs", got.Vbs, want.Vbs},
		{"Vth", got.Vth, want.Vth}, {"Vov", got.Vov, want.Vov},
	}
	for _, f := range fields {
		if !eq(f.gv, f.wv) {
			return fmt.Sprintf("%s = %v (%#016x), reference %v (%#016x)",
				f.name, f.gv, math.Float64bits(f.gv), f.wv, math.Float64bits(f.wv))
		}
	}
	if got.Saturated != want.Saturated {
		return fmt.Sprintf("Saturated = %v, reference %v", got.Saturated, want.Saturated)
	}
	if got.Swapped != want.Swapped {
		return fmt.Sprintf("Swapped = %v, reference %v", got.Swapped, want.Swapped)
	}
	return ""
}

// checkEval compares Eval against the reference at one bias.
func checkEval(t *testing.T, eq func(a, b float64) bool, p Params, w, l, vg, vd, vs, vb float64) bool {
	t.Helper()
	if d := diffOP(p.Eval(w, l, vg, vd, vs, vb), p.evalRef(w, l, vg, vd, vs, vb), eq); d != "" {
		t.Errorf("%v W=%g L=%g vg=%g vd=%g vs=%g vb=%g: %s", p.Class, w, l, vg, vd, vs, vb, d)
		return false
	}
	return true
}

// edgesHit names the model edges one nominal bias exercises, so the
// grid test can prove it covers them.
func edgesHit(p Params, vg, vd, vs, vb float64) []string {
	var hit []string
	for _, v := range []float64{vg, vd, vs, vb} {
		if v == 0 && math.Signbit(v) {
			hit = append(hit, "negative zero")
			break
		}
	}
	if p.Class == process.PMOS {
		hit = append(hit, "pmos")
		vg, vd, vs, vb = -vg, -vd, -vs, -vb
	}
	const h = 1e-6
	swapped := vd < vs
	if swapped {
		hit = append(hit, "swapped")
	}
	if (vd+h < vs) != swapped || (vd-h < vs) != swapped {
		hit = append(hit, "drain probe flips the swap")
	}
	if swapped {
		vd, vs = vs, vd
	}
	vgs, vds, vbs := vg-vs, vd-vs, vb-vs
	if p.Phi-vbs < 0.05 {
		hit = append(hit, "arg clamp")
	}
	vth := p.threshold(vbs)
	x := (vgs - vth) / (2 * p.NSub * vTherm)
	switch {
	case x > 40:
		hit = append(hit, "softplus x > 40")
	case x < -40:
		hit = append(hit, "softplus x < -40")
	}
	vdsat := math.Max(p.overdrive(vgs, vth), 1e-9)
	r := vds / vdsat
	r4 := (r * r) * (r * r)
	switch {
	case math.IsInf(r4, 1):
		hit = append(hit, "r^4 overflow")
	case r != 0 && r4 < 0x1p-1022:
		hit = append(hit, "r^4 underflow")
	}
	return hit
}

// TestEvalMatchesReferenceGrid walks every terminal over a set of edge
// voltages — signed zeros, sub-step drain-source gaps, deep cutoff and
// strong inversion, a forward-biased bulk, and magnitudes that
// underflow or overflow r⁴ — for both device classes, and checks that
// the grid reaches every edge it is meant to.
func TestEvalMatchesReferenceGrid(t *testing.T) {
	volts := []float64{
		math.Copysign(0, -1), 0, 4e-7, -4e-7, 1e-300,
		0.3, 0.9, 1.65, 3.3, -3.3, 1e80, -1e160,
	}
	geoms := [][2]float64{{10e-6, 1e-6}, {1e-6, 0.35e-6}}
	want := []string{
		"negative zero", "pmos", "swapped", "drain probe flips the swap",
		"arg clamp", "softplus x > 40", "softplus x < -40",
		"r^4 overflow", "r^4 underflow",
	}
	hits := map[string]int{}
	failures := 0
	for _, p := range []Params{NominalNMOS(), NominalPMOS()} {
		for _, g := range geoms {
			for _, vg := range volts {
				for _, vd := range volts {
					for _, vs := range volts {
						for _, vb := range volts {
							if !checkEval(t, sameBits, p, g[0], g[1], vg, vd, vs, vb) {
								if failures++; failures > 10 {
									t.Fatal("too many mismatches")
								}
							}
							for _, e := range edgesHit(p, vg, vd, vs, vb) {
								hits[e]++
							}
						}
					}
				}
			}
		}
	}
	for _, e := range want {
		if hits[e] == 0 {
			t.Errorf("grid never reaches %q", e)
		}
	}
}

// TestEvalMatchesReferenceRandom sweeps seeded random biases, geometries
// and process shifts across the operating range.
func TestEvalMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	v := func() float64 { return rng.Float64()*8 - 4 }
	for i := 0; i < 20000; i++ {
		p := Nominal(process.DeviceClass(rng.Intn(2)))
		p = p.Applied(process.Shift{DVth: rng.NormFloat64() * 0.03, DBeta: rng.NormFloat64() * 0.05})
		w := 0.5e-6 + rng.Float64()*100e-6
		l := 0.2e-6 + rng.Float64()*10e-6
		vg, vd, vs, vb := v(), v(), v(), v()
		if i%4 == 0 {
			vd = vs + (rng.Float64()*4-2)*1e-6 // around the swap point
		}
		if !checkEval(t, sameBits, p, w, l, vg, vd, vs, vb) {
			return
		}
	}
}

// TestSpelledOutPowMatchesPow pins the identity current relies on:
// math.Pow(1+math.Pow(r, 4), 0.25) and
// math.Exp(0.25*math.Log(1+float64(r2*r2))) with r2 = r·r agree bit for
// bit, including the exact-1 result when r⁴ vanishes beside 1.
func TestSpelledOutPowMatchesPow(t *testing.T) {
	rs := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 1e-80, 1e-5, 0.1, 0.5, 1,
		1 + 0x1p-52, 2, 10, 1e5, 1e76, 1e77, 1e78, 1e154, 1e155, 1e300, math.MaxFloat64,
		math.Inf(1)}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		rs = append(rs, math.Exp(rng.Float64()*40-20))
	}
	for _, r := range rs {
		want := math.Pow(1+math.Pow(r, 4), 0.25)
		r2 := r * r
		got := math.Exp(0.25 * math.Log(1+float64(r2*r2)))
		if !sameBits(got, want) {
			t.Fatalf("r=%g: spelled out %v (%#x), math.Pow %v (%#x)",
				r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func FuzzEvalMatchesReference(f *testing.F) {
	f.Add(false, 10e-6, 1e-6, 1.0, 2.0, 0.0, 0.0)
	f.Add(true, 10e-6, 1e-6, 1.8, 1.0, 3.3, 3.3)
	f.Add(false, 1e-6, 0.35e-6, 1.5, 0.4e-6, 0.0, 1.0)
	f.Add(true, 60e-6, 4e-6, -3.5, 1e80, math.Copysign(0, -1), 0.0)
	f.Fuzz(func(t *testing.T, pmos bool, w, l, vg, vd, vs, vb float64) {
		if !(w > 0 && l > 0) {
			return // Eval rejects the geometry
		}
		p := NominalNMOS()
		if pmos {
			p = NominalPMOS()
		}
		checkEval(t, sameOrNaN, p, w, l, vg, vd, vs, vb)
	})
}
