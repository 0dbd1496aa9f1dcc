package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
)

// sweepRequests spans the synthetic model's behaviour space: in-domain,
// boundary, out-of-range and infeasible spec pairs, both senses, and
// guard-band scales around 1. The golden tests drive the server and
// core over this set.
func sweepRequests(model string) []api.QueryRequest {
	var reqs []api.QueryRequest
	rng := rand.New(rand.NewSource(41))
	add := func(b0, b1, scale float64, sense1 string) {
		reqs = append(reqs, api.QueryRequest{
			TenantRef: api.TenantRef{Model: model},
			Specs: [2]api.Spec{
				{Name: "gain_db", Sense: ">=", Bound: b0},
				{Name: "pm_deg", Sense: sense1, Bound: b1},
			},
			GuardScale: scale,
		})
	}
	for i := 0; i < 160; i++ {
		// Mostly-feasible region: domain is perf0 ∈ [45, 55] and the front
		// offers perf1 = 85 − 1.2·(perf0 − 45) ∈ [73, 85].
		b0 := 45.5 + 7*rng.Float64()
		b1 := 71 + 4*rng.Float64()
		scale := 0.0
		switch i % 4 {
		case 1:
			scale = 0.5 + rng.Float64()
		case 2:
			scale = 3 // often pushes the target out of the front
		case 3:
			b0 = 44 + 13*rng.Float64() // spills outside the domain
			b1 = 60 + 40*rng.Float64() // frequently infeasible
		}
		sense1 := ">="
		if i%7 == 0 {
			sense1 = "<=" // AtMost guard-bands downward: usually feasible
		}
		add(b0, b1, scale, sense1)
	}
	// Exact knots and domain edges.
	add(45, 73, 0, ">=")
	add(55, 73, 0, ">=")
	add(50, 79, 0, ">=")
	add(46, 74, 0, ">=")
	// Error shapes: parse failure, negative scale, far out of range.
	reqs = append(reqs, api.QueryRequest{
		TenantRef: api.TenantRef{Model: model},
		Specs:     [2]api.Spec{{Name: "g", Sense: "bogus", Bound: 50}, {Name: "p", Bound: 76}},
	})
	add(50, 76, -1, ">=")
	add(1e6, 76, 0, ">=")
	add(50, -1e6, 0, "<=")
	return reqs
}

// TestCompiledGoldenBitIdentical drives the server's query path and
// core.Model.DesignForScaled over the sweep and demands byte-for-byte
// float agreement on every answered query, agreement on which queries
// are answerable at all, and the same error text on every refusal.
func TestCompiledGoldenBitIdentical(t *testing.T) {
	m := synthModel(t, 12)
	cm, err := CompileModel(api.DefaultTenant, "m1", m)
	if err != nil {
		t.Fatalf("CompileModel: %v", err)
	}
	sc := getScratch()
	defer putScratch(sc)
	answered := 0
	for i, req := range sweepRequests("m1") {
		ref := solveQuery(api.DefaultTenant, "m1", m, req)
		d, err := cm.solve(req, sc)
		if (err == nil) != (ref.Error == "") {
			t.Fatalf("req %d: server error %v, core error=%q", i, err, ref.Error)
		}
		if err != nil {
			if err.Error() != ref.Error {
				t.Errorf("req %d: server error %q, core %q", i, err.Error(), ref.Error)
			}
			continue
		}
		answered++
		got := cm.response(d)
		want := ref.Response
		eq := func(field string, g, w float64) {
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("req %d %s: server %v (%x), core %v (%x)",
					i, field, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		for k := 0; k < 2; k++ {
			eq("Targets["+strconv.Itoa(k)+"]", got.Targets[k], want.Targets[k])
			eq("DeltaPct["+strconv.Itoa(k)+"]", got.DeltaPct[k], want.DeltaPct[k])
			eq("FrontPerf["+strconv.Itoa(k)+"]", got.FrontPerf[k], want.FrontPerf[k])
		}
		eq("CurveParam", got.CurveParam, want.CurveParam)
		eq("PredictedYield", got.PredictedYield, want.PredictedYield)
		if len(got.Params) != len(want.Params) {
			t.Fatalf("req %d: %d params, want %d", i, len(got.Params), len(want.Params))
		}
		for k := range got.Params {
			if got.Params[k].Name != want.Params[k].Name || got.Params[k].Unit != want.Params[k].Unit {
				t.Errorf("req %d param %d: label %+v, want %+v", i, k, got.Params[k], want.Params[k])
			}
			eq("Params["+strconv.Itoa(k)+"]", got.Params[k].Value, want.Params[k].Value)
		}
	}
	if answered < 40 {
		t.Fatalf("only %d sweep queries answered — sweep too narrow to prove identity", answered)
	}
}

// TestCompiledGoldenJSON renders every answerable sweep query from the
// pre-rendered fragments and compares the bytes against encoding/json on
// the reference response — the HTTP fast path must be byte-identical,
// trailing newline included.
func TestCompiledGoldenJSON(t *testing.T) {
	m := synthModel(t, 12)
	cm, err := CompileModel(api.DefaultTenant, "m1", m)
	if err != nil {
		t.Fatal(err)
	}
	sc := getScratch()
	defer putScratch(sc)
	for i, req := range sweepRequests("m1") {
		ref := solveQuery(api.DefaultTenant, "m1", m, req)
		if ref.Error != "" {
			continue
		}
		d, err := cm.solve(req, sc)
		if err != nil {
			t.Fatalf("req %d: core answered but the server refused: %v", i, err)
		}
		got, ok := cm.appendJSON(nil, d)
		if !ok {
			t.Fatalf("req %d: appendJSON refused", i)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref.Response); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("req %d: rendered JSON differs\nrendered: %s\nencoder:  %s", i, got, want.Bytes())
		}
	}
}

// TestCompiledGoldenErrors routes error-producing queries through the
// registry and checks the message is exactly core's; the whole sweep
// through QueryBatch must then equal the per-query path, answers and
// errors alike.
func TestCompiledGoldenErrors(t *testing.T) {
	r := NewRegistry(store.OpenDisk(t.TempDir()), 4)
	defer r.Close()
	m := synthModel(t, 12)
	if _, err := r.Install(api.DefaultTenant, "m1", m); err != nil {
		t.Fatal(err)
	}
	reqs := sweepRequests("m1")
	for i, req := range reqs {
		ref := solveQuery(api.DefaultTenant, "m1", m, req)
		if ref.Error == "" {
			continue
		}
		_, err := r.Query(t.Context(), req)
		if err == nil {
			t.Fatalf("req %d: registry answered, core failed with %q", i, ref.Error)
		}
		if err.Error() != ref.Error {
			t.Errorf("req %d: registry error %q, core %q", i, err.Error(), ref.Error)
		}
	}
	for i, res := range r.QueryBatch(t.Context(), reqs) {
		single, err := r.Query(t.Context(), reqs[i])
		switch {
		case err != nil:
			if res.Error != err.Error() {
				t.Errorf("req %d: batch error %q, per-query %q", i, res.Error, err.Error())
			}
		case res.Error != "":
			t.Errorf("req %d: batch error %q, per-query answered", i, res.Error)
		default:
			if d := sameAnswer(res.Response, single); d != "" {
				t.Errorf("req %d: batch and per-query answers differ: %s", i, d)
			}
		}
	}
}

// TestAppendJSONFloat pins the hand renderer to encoding/json across
// the representation boundaries (1e-6, 1e21, exponent cleanup).
func TestAppendJSONFloat(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, 50.255, 1e-6, 9.9e-7, 1e-7, 1e21, 9.99e20, -2.5e-9,
		1e300, 5e-324, math.MaxFloat64, 0.1, 1.0 / 3.0, 76.38,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Ldexp(rng.Float64()*2-1, rng.Intn(200)-100))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendJSONFloat(nil, v)
		if !ok {
			t.Fatalf("appendJSONFloat refused %v", v)
		}
		if string(got) != string(want) {
			t.Errorf("%v: rendered %s, encoding/json %s", v, got, want)
		}
	}
	if _, ok := appendJSONFloat(nil, math.NaN()); ok {
		t.Error("NaN accepted")
	}
	if _, ok := appendJSONFloat(nil, math.Inf(1)); ok {
		t.Error("+Inf accepted")
	}
}

// FuzzQueryMatchesOracle fuzzes bounds, senses (a bad one included)
// and guard scale (up to the float64 maximum) against two models and
// demands the server's answer equal core.Model.DesignForScaled's: bit
// for bit on an answer, the same text on an error. Every answer must
// render through appendJSON to encoding/json's bytes. On synthModel an
// overflowing guard band is always infeasible; the overflow model's
// negative perf1 axis lets one reach an infinite target the feasibility
// test would accept. Core's own engine is fuzzed against its reference
// by FuzzDesignMatchesOracle.
func FuzzQueryMatchesOracle(f *testing.F) {
	f.Add(uint8(1), 15.0, -3.0, uint8(1), uint8(1), 1e308) // overflows b's target to +Inf
	f.Add(uint8(0), 50.0, 76.0, uint8(0), uint8(0), 0.0)
	f.Add(uint8(0), 48.0, 74.0, uint8(0), uint8(1), math.MaxFloat64)
	f.Add(uint8(0), 46.0, 80.0, uint8(0), uint8(0), 1.7)
	f.Add(uint8(1), 12.0, -4.0, uint8(0), uint8(1), 2.5)
	f.Add(uint8(1), 19.0, -2.5, uint8(1), uint8(0), 5e307)
	f.Add(uint8(1), 15.0, -3.0, uint8(2), uint8(1), 1.0) // bad sense
	models := []*core.Model{synthModel(f, 12), overflowModel(f)}
	served := make([]*CompiledModel, len(models))
	for i, m := range models {
		cm, err := CompileModel(api.DefaultTenant, "m", m)
		if err != nil {
			f.Fatal(err)
		}
		served[i] = cm
	}
	senses := []string{">=", "<=", "bogus"}
	f.Fuzz(func(t *testing.T, which uint8, b0, b1 float64, s0, s1 uint8, scale float64) {
		k := int(which) % len(models)
		names := models[k].ObjectiveNames
		req := api.QueryRequest{
			TenantRef: api.TenantRef{Model: "m"},
			Specs: [2]api.Spec{
				{Name: names[0], Sense: senses[int(s0)%len(senses)], Bound: b0},
				{Name: names[1], Sense: senses[int(s1)%len(senses)], Bound: b1},
			},
			GuardScale: scale,
		}
		ref := solveQuery(api.DefaultTenant, "m", models[k], req)
		sc := getScratch()
		defer putScratch(sc)
		d, err := served[k].solve(req, sc)
		if ref.Error != "" {
			if err == nil || err.Error() != ref.Error {
				t.Fatalf("%+v: server error %v, core %q", req, err, ref.Error)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v: server error %v, core answered", req, err)
		}
		if diff := sameAnswer(served[k].response(d), ref.Response); diff != "" {
			t.Fatalf("%+v: %s", req, diff)
		}
		got, ok := served[k].appendJSON(nil, d)
		if !ok {
			t.Fatalf("%+v: answer does not render: %+v", req, *d)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref.Response); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v: rendered %s, encoder %s", req, got, want.Bytes())
		}
	})
}
