package server

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"analogyield/internal/server/api"
	"analogyield/internal/store"
)

func testQuery(model string) api.QueryRequest {
	return api.QueryRequest{
		TenantRef: api.TenantRef{Model: model},
		Specs: [2]api.Spec{
			{Name: "gain_db", Sense: ">=", Bound: 50},
			{Name: "pm_deg", Sense: ">=", Bound: 76},
		},
	}
}

func TestRegistryQuery(t *testing.T) {
	r := NewRegistry(store.OpenDisk(t.TempDir()), 4)
	defer r.Close()
	if _, err := r.Install(api.DefaultTenant, "m1", synthModel(t, 12)); err != nil {
		t.Fatal(err)
	}

	out, err := r.Query(context.Background(), testQuery("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Model != "m1" {
		t.Errorf("Model = %q", out.Model)
	}
	// Guard-banding must make AtLeast targets stricter than the bounds.
	if out.Targets[0] <= 50 || out.Targets[1] <= 76 {
		t.Errorf("targets %v not guard-banded above bounds", out.Targets)
	}
	if out.DeltaPct[0] <= 0 || out.DeltaPct[1] <= 0 {
		t.Errorf("DeltaPct = %v, want positive", out.DeltaPct)
	}
	if len(out.Params) != 3 || out.Params[0].Name != "P1" || out.Params[0].Unit != "um" {
		t.Errorf("Params = %+v", out.Params)
	}
	// The selected front point sits a full guard band past each bound, so
	// the predicted joint yield must be near Φ(3)² ≈ 0.997.
	if out.PredictedYield <= 0.98 || out.PredictedYield > 1 {
		t.Errorf("PredictedYield = %g, want ≈0.997", out.PredictedYield)
	}
	if out.CurveParam < 0 || out.CurveParam > 1 {
		t.Errorf("CurveParam = %g outside [0,1]", out.CurveParam)
	}
}

func TestRegistryUnknownAndBadNames(t *testing.T) {
	r := NewRegistry(store.OpenDisk(t.TempDir()), 4)
	defer r.Close()
	if _, err := r.Query(context.Background(), testQuery("nope")); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: err = %v, want ErrUnknownModel", err)
	}
	for _, name := range []string{"", ".", "..", "a/b", "../escape"} {
		if _, err := r.Query(context.Background(), testQuery(name)); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestRegistryLRUEvictionAndReload(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(store.OpenDisk(dir), 2)
	defer r.Close()

	for _, name := range []string{"m1", "m2", "m3"} {
		if _, err := r.Install(api.DefaultTenant, name, synthModel(t, 12)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Resident(); got != 2 {
		t.Fatalf("Resident = %d, want 2 (LRU cap)", got)
	}

	// m1 was evicted (least recently used) but persists on disk; a query
	// reloads it transparently and evicts another entry to stay at cap.
	if _, err := r.Query(context.Background(), testQuery("m1")); err != nil {
		t.Fatalf("query after eviction: %v", err)
	}
	if got := r.Resident(); got != 2 {
		t.Errorf("Resident = %d after reload, want 2", got)
	}

	// All three remain visible in the listing, resident or not.
	infos := r.List(api.DefaultTenant)
	if len(infos) != 3 {
		t.Fatalf("List: %d models, want 3", len(infos))
	}
	resident := 0
	for _, in := range infos {
		if in.Points != 12 {
			t.Errorf("%s: Points = %d, want 12", in.Name, in.Points)
		}
		if in.Domain[0] >= in.Domain[1] {
			t.Errorf("%s: Domain = %v", in.Name, in.Domain)
		}
		if in.Resident {
			resident++
		}
	}
	if resident != 2 {
		t.Errorf("%d resident models in List, want 2", resident)
	}
}

func TestRegistryEvictAndDelete(t *testing.T) {
	r := NewRegistry(nil, 4) // in-process memory store
	defer r.Close()
	if _, err := r.Install(api.DefaultTenant, "m1", synthModel(t, 12)); err != nil {
		t.Fatal(err)
	}
	// Evict drops residency only: the store still holds the artefact, so
	// the next query transparently reloads (even on the memory backend).
	if !r.Evict(api.DefaultTenant, "m1") {
		t.Fatal("Evict reported no entry")
	}
	if r.Resident() != 0 {
		t.Fatalf("Resident = %d after Evict", r.Resident())
	}
	if _, err := r.Query(context.Background(), testQuery("m1")); err != nil {
		t.Fatalf("query after eviction should reload from store: %v", err)
	}
	// Delete removes the artefact itself: the model is gone for good.
	if err := r.Delete(api.DefaultTenant, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query(context.Background(), testQuery("m1")); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("after delete: err = %v, want ErrUnknownModel", err)
	}
	if err := r.Delete(api.DefaultTenant, "m1"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("double delete: err = %v, want ErrUnknownModel", err)
	}
}

func TestRegistryQueryBatchGroups(t *testing.T) {
	r := NewRegistry(store.OpenDisk(t.TempDir()), 4)
	defer r.Close()
	for _, name := range []string{"m1", "m2"} {
		if _, err := r.Install(api.DefaultTenant, name, synthModel(t, 12)); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave models, include an unknown model and an out-of-range
	// bound: results must line up with requests and failures stay local.
	bad := testQuery("m1")
	bad.Specs[0].Bound = 1e9
	reqs := []api.QueryRequest{
		testQuery("m1"), testQuery("m2"), testQuery("nope"),
		bad, testQuery("m2"), testQuery("m1"),
	}
	results := r.QueryBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for _, i := range []int{0, 1, 4, 5} {
		if results[i].Error != "" || results[i].Response == nil {
			t.Errorf("result %d: err %q", i, results[i].Error)
			continue
		}
		if results[i].Response.Model != reqs[i].Model {
			t.Errorf("result %d answered for model %q, want %q",
				i, results[i].Response.Model, reqs[i].Model)
		}
	}
	if results[2].Error == "" {
		t.Error("unknown model produced no error")
	}
	if results[3].Error == "" {
		t.Error("out-of-range bound produced no error")
	}
	// Batch answers equal the per-query path exactly.
	single, err := r.Query(context.Background(), testQuery("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0].Response, single) {
		t.Errorf("batch and single answers differ:\n%+v\n%+v", results[0].Response, single)
	}
}

func TestRegistryQueryCancelled(t *testing.T) {
	r := NewRegistry(store.OpenDisk(t.TempDir()), 4)
	defer r.Close()
	if _, err := r.Install(api.DefaultTenant, "m1", synthModel(t, 12)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Query(ctx, testQuery("m1")); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	for _, res := range r.QueryBatch(ctx, []api.QueryRequest{testQuery("m1")}) {
		if res.Error == "" {
			t.Error("cancelled batch produced a result")
		}
	}
}

// TestRegistrySnapshotHammer races lock-free queries against snapshot
// swaps: installs over a hot name, evictions and reloads. Run under
// -race this proves the atomic-snapshot publication protocol; under
// plain `go test` it still checks that every query lands on a coherent
// model (answer or error, never a torn state).
func TestRegistrySnapshotHammer(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(store.OpenDisk(dir), 2)
	defer r.Close()
	if _, err := r.Install(api.DefaultTenant, "hot", synthModel(t, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Install(api.DefaultTenant, "cold", synthModel(t, 12)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := r.Query(context.Background(), testQuery("hot"))
				if err != nil {
					t.Errorf("query during swap: %v", err)
					return
				}
				if out.Model != "hot" || len(out.Params) != 3 {
					t.Errorf("torn response: %+v", out)
					return
				}
				r.QueryBatch(context.Background(),
					[]api.QueryRequest{testQuery("hot"), testQuery("cold")})
			}
		}()
	}
	// Writer: keep replacing the hot model and cycling residency.
	deadline := time.After(300 * time.Millisecond)
	m2 := synthModel(t, 14)
loop:
	for {
		select {
		case <-deadline:
			break loop
		default:
		}
		if _, err := r.Install(api.DefaultTenant, "hot", m2); err != nil {
			t.Errorf("install during queries: %v", err)
			break
		}
		r.Evict(api.DefaultTenant, "cold") // next batch query reloads it from dir
	}
	close(stop)
	wg.Wait()
}

// TestHistoricalPinMatchesOracle: a query pinned to an older version is
// compiled for that call only. It answers bit-identically to the oracle
// on that version's model and leaves residency alone, and a batch that
// mixes latest and pinned queries equals the per-query answers.
func TestHistoricalPinMatchesOracle(t *testing.T) {
	r := NewRegistry(nil, 4)
	defer r.Close()
	ctx := context.Background()
	m1 := synthModel(t, 12)
	pts := benchPoints(14)
	for i := range pts {
		pts[i].DeltaPct[0] *= 1.5 // a different guard band, so answers differ
	}
	m2, err := buildBenchModel(pts)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := r.Install(api.DefaultTenant, "m", m1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Install(api.DefaultTenant, "m", m2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Fatal("two different models share a version")
	}
	resident := r.Resident()

	pinned := testQuery("m")
	pinned.Version = v1
	got, err := r.Query(ctx, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameAnswer(got, solveQuery(api.DefaultTenant, "m", m1, pinned).Response); d != "" {
		t.Errorf("v1-pinned answer differs from the oracle on v1: %s", d)
	}
	if sameAnswer(got, solveQuery(api.DefaultTenant, "m", m2, testQuery("m")).Response) == "" {
		t.Fatal("v1 and v2 answer alike; the pin is not being tested")
	}
	checkResidency := func(when string) {
		t.Helper()
		if n := r.Resident(); n != resident {
			t.Errorf("%s: Resident = %d, want %d", when, n, resident)
		}
		info, err := r.Info(api.DefaultTenant, "m")
		if err != nil {
			t.Fatal(err)
		}
		if !info.Resident || info.Version != v2 {
			t.Errorf("%s: resident %v at version %s, want v2 %s", when, info.Resident, info.Version, v2)
		}
	}
	checkResidency("after a pinned query")

	other := testQuery("m")
	other.Specs[0].Bound = 48
	otherPinned := other
	otherPinned.Version = v1
	batch := []api.QueryRequest{testQuery("m"), pinned, other, otherPinned}
	for i, res := range r.QueryBatch(ctx, batch) {
		single, err := r.Query(ctx, batch[i])
		if err != nil || res.Error != "" {
			t.Fatalf("query %d: batch error %q, per-query error %v", i, res.Error, err)
		}
		if d := sameAnswer(res.Response, single); d != "" {
			t.Errorf("query %d: batch and per-query answers differ: %s", i, d)
		}
	}
	checkResidency("after a mixed batch")
}

// TestInstallRefusesUncompilable: a model the query engine cannot answer
// (here one without parameter tables, which core.BuildModel never
// builds) is refused before anything is stored or made resident.
func TestInstallRefusesUncompilable(t *testing.T) {
	r := NewRegistry(nil, 4)
	defer r.Close()
	m := synthModel(t, 12)
	m.ParamTables = nil
	if _, err := r.Install(api.DefaultTenant, "m1", m); err == nil {
		t.Fatal("Install accepted a model the engine cannot answer")
	}
	infos, err := r.Store().List(api.DefaultTenant, store.KindModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Errorf("store holds %d models after a refused install", len(infos))
	}
	if n := r.Resident(); n != 0 {
		t.Errorf("Resident = %d after a refused install", n)
	}
}

// TestRegistryServesStoredV1Payload: a store written before the fixed
// model layout holds front64 as v1 gob bytes under their own version.
// Re-installing the same model adds one v2 version beside it, and a
// query pinned to the v1 version answers exactly as one pinned to v2.
func TestRegistryServesStoredV1Payload(t *testing.T) {
	ctx := context.Background()
	v1, err := os.ReadFile("../core/testdata/front64_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemory()
	old, err := st.Put(api.DefaultTenant, store.KindModel, "m", v1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(st, 8)
	defer r.Close()
	cur, err := r.Install(api.DefaultTenant, "m", synthModel(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	if cur == old.Version {
		t.Fatal("the re-install kept the v1 version")
	}
	if _, _, err := st.Get(store.Key{Tenant: api.DefaultTenant, Kind: store.KindModel, Name: "m", Version: old.Version}); err != nil {
		t.Fatalf("the v1 version is gone after the re-install: %v", err)
	}
	answered := 0
	for i, q := range sweepRequests("m") {
		pinOld, pinCur := q, q
		pinOld.Version, pinCur.Version = old.Version, cur
		a, errA := r.Query(ctx, pinOld)
		b, errB := r.Query(ctx, pinCur)
		switch {
		case (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error():
			t.Errorf("query %d: v1 error %v, v2 error %v", i, errA, errB)
		case errA == nil:
			answered++
			if d := sameAnswer(a, b); d != "" {
				t.Errorf("query %d: v1 and v2 answers differ: %s", i, d)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no query answered; the pin is not being tested")
	}
}
