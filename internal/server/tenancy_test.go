package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
	"analogyield/internal/server/client"
	"analogyield/internal/store"
)

// The default namespace is one constant wearing two package names; a
// drift here would silently split the catalog in two.
func TestDefaultTenantConstantsAgree(t *testing.T) {
	if api.DefaultTenant != store.DefaultTenant {
		t.Fatalf("api.DefaultTenant = %q, store.DefaultTenant = %q",
			api.DefaultTenant, store.DefaultTenant)
	}
}

// modelPoints builds the synthetic front in wire form; the base offset
// lets two tenants install distinguishable models under one name.
func modelPoints(n int, base float64) []api.ModelPoint {
	pts := make([]api.ModelPoint, n)
	for i := range pts {
		x := float64(i) / float64(n-1)
		pts[i] = api.ModelPoint{
			Perf:     [2]float64{base + 10*x, 85 - 12*x},
			DeltaPct: [2]float64{1.0 + 0.2*x, 0.5 + 0.1*x},
			Params:   []float64{10 + 50*x, 10, 10},
		}
	}
	return pts
}

func installReq(name string, n int, base float64) api.InstallModelRequest {
	return api.InstallModelRequest{
		Name:           name,
		ObjectiveNames: []string{"gain_db", "pm_deg"},
		ParamNames:     []string{"P1", "P2", "P3"},
		ParamUnits:     []string{"um", "um", "um"},
		Points:         modelPoints(n, base),
	}
}

func bootServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &core.Metrics{}
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLog()
	}
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestTenantIsolation installs the same model name into two tenants
// (and nothing into the default one) and checks that catalogs, queries
// and the wire "tenant" field never cross namespaces.
func TestTenantIsolation(t *testing.T) {
	srv := bootServer(t, Config{ModelsDir: t.TempDir()})
	defer shutdown(t, srv)
	ctx := context.Background()
	base := "http://" + srv.Addr()

	acme := client.New(base, client.WithTenant("acme"))
	beta := client.New(base, client.WithTenant("beta"))
	def := client.New(base)

	// Same name, different fronts: acme's gain domain starts at 45,
	// beta's at 60.
	if _, err := acme.InstallModel(ctx, installReq("ota", 12, 45)); err != nil {
		t.Fatal(err)
	}
	if _, err := beta.InstallModel(ctx, installReq("ota", 16, 60)); err != nil {
		t.Fatal(err)
	}

	ai, err := acme.Model(ctx, "ota")
	if err != nil {
		t.Fatal(err)
	}
	bi, err := beta.Model(ctx, "ota")
	if err != nil {
		t.Fatal(err)
	}
	if ai.Points != 12 || bi.Points != 16 {
		t.Errorf("points: acme %d beta %d, want 12 and 16", ai.Points, bi.Points)
	}
	if ai.Version == bi.Version {
		t.Errorf("different payloads share content address %q", ai.Version)
	}
	if ai.Tenant != "acme" || bi.Tenant != "beta" {
		t.Errorf("ModelInfo tenants %q/%q", ai.Tenant, bi.Tenant)
	}
	if ai.Domain[0] != 45 || bi.Domain[0] != 60 {
		t.Errorf("domains crossed tenants: acme %v beta %v", ai.Domain, bi.Domain)
	}

	// The default tenant has no "ota" at all.
	if _, err := def.Model(ctx, "ota"); err == nil {
		t.Error("default tenant sees acme's model")
	}
	infos, err := def.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Errorf("default catalog lists %d models, want 0", len(infos))
	}

	// Queries answer within the tenant and stamp it on the response.
	aout, err := acme.Query(ctx, api.QueryRequest{
		TenantRef: api.TenantRef{Model: "ota"},
		Specs: [2]api.Spec{
			{Name: "gain_db", Sense: ">=", Bound: 50},
			{Name: "pm_deg", Sense: ">=", Bound: 76},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if aout.Tenant != "acme" {
		t.Errorf("QueryResponse.Tenant = %q, want acme", aout.Tenant)
	}
	// Bound 50 is inside acme's [45,55] front but below beta's domain:
	// beta's answer sits at its front edge, never acme's interior.
	bout, err := beta.Query(ctx, api.QueryRequest{
		TenantRef: api.TenantRef{Model: "ota"},
		Specs: [2]api.Spec{
			{Name: "gain_db", Sense: ">=", Bound: 62},
			{Name: "pm_deg", Sense: ">=", Bound: 76},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bout.Tenant != "beta" {
		t.Errorf("QueryResponse.Tenant = %q, want beta", bout.Tenant)
	}
	if bout.FrontPerf[0] < 60 {
		t.Errorf("beta answered from acme's front: FrontPerf %v", bout.FrontPerf)
	}

	// A body tenant contradicting the path tenant is rejected, not
	// silently redirected.
	body, _ := json.Marshal(api.QueryRequest{
		TenantRef: api.TenantRef{Tenant: "beta", Model: "ota"},
	})
	resp, err := http.Post(base+"/v1/t/acme/yield/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("contradicting tenants: status %d, want 400", resp.StatusCode)
	}

	// Deleting acme's model leaves beta's intact.
	if err := acme.DeleteModel(ctx, "ota"); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Model(ctx, "ota"); err == nil {
		t.Error("acme model survived delete")
	}
	if _, err := beta.Model(ctx, "ota"); err != nil {
		t.Errorf("beta model lost by acme's delete: %v", err)
	}
}

// TestWarmStartAndSharedDiskStore is the durability acceptance path: a
// model installed over the API is immediately visible to a second live
// server on the same store directory, and still queryable by (tenant,
// name) after both processes are gone and a third boots cold.
func TestWarmStartAndSharedDiskStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	query := api.QueryRequest{
		TenantRef: api.TenantRef{Model: "ota-acme"},
		Specs: [2]api.Spec{
			{Name: "gain_db", Sense: ">=", Bound: 50},
			{Name: "pm_deg", Sense: ">=", Bound: 76},
		},
	}

	srv1 := bootServer(t, Config{ModelsDir: dir})
	acme1 := client.New("http://"+srv1.Addr(), client.WithTenant("acme"))
	info, err := acme1.InstallModel(ctx, installReq("ota-acme", 12, 45))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version == "" {
		t.Fatal("install reported no content version")
	}

	// A second live process on the same directory serves the model
	// without any hand-off: the store is the only coordination point.
	srv2 := bootServer(t, Config{ModelsDir: dir})
	acme2 := client.New("http://"+srv2.Addr(), client.WithTenant("acme"))
	out, err := acme2.Query(ctx, query)
	if err != nil {
		t.Fatalf("second live server: %v", err)
	}
	if out.Model != "ota-acme" || out.Tenant != "acme" {
		t.Errorf("second server answered %q/%q", out.Tenant, out.Model)
	}
	shutdown(t, srv2)
	shutdown(t, srv1)

	// Cold restart: same directory, fresh process.
	srv3 := bootServer(t, Config{ModelsDir: dir})
	defer shutdown(t, srv3)
	acme3 := client.New("http://"+srv3.Addr(), client.WithTenant("acme"))
	info3, err := acme3.Model(ctx, "ota-acme")
	if err != nil {
		t.Fatalf("model lost across restart: %v", err)
	}
	if info3.Version != info.Version {
		t.Errorf("version drifted across restart: %q != %q", info3.Version, info.Version)
	}
	if _, err := acme3.Query(ctx, query); err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	// Version pinning addresses the exact artefact that was installed.
	pinned := query
	pinned.Version = info.Version
	if _, err := acme3.Query(ctx, pinned); err != nil {
		t.Fatalf("version-pinned query after restart: %v", err)
	}
}

// TestCorruptArtefactTypedErrors damages stored blobs underneath a
// running server and checks the failure surfaces as a typed 422 — not a
// panic, not a misleading 404 — while absent models still 404.
func TestCorruptArtefactTypedErrors(t *testing.T) {
	dir := t.TempDir()
	srv := bootServer(t, Config{ModelsDir: dir})
	defer shutdown(t, srv)
	ctx := context.Background()
	cl := client.New("http://" + srv.Addr())

	post := func(model string) int {
		t.Helper()
		body, _ := json.Marshal(api.QueryRequest{
			TenantRef: api.TenantRef{Model: model},
			Specs: [2]api.Spec{
				{Name: "gain_db", Sense: ">=", Bound: 50},
				{Name: "pm_deg", Sense: ">=", Bound: 76},
			},
		})
		resp, err := http.Post("http://"+srv.Addr()+"/v1/yield/query",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	blobPath := func(name string) string {
		t.Helper()
		info, err := cl.Model(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, "blobs", info.Version[:2], info.Version)
	}

	for name, n := range map[string]int{"truncated": 12, "flipped": 14, "missing": 16} {
		if _, err := cl.InstallModel(ctx, installReq(name, n, 45)); err != nil {
			t.Fatal(err)
		}
	}

	// Truncated envelope.
	if err := os.Truncate(blobPath("truncated"), 10); err != nil {
		t.Fatal(err)
	}
	// A flipped payload byte keeps the envelope intact but breaks the
	// content fingerprint.
	p := blobPath("flipped")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// A ref whose blob is gone is a damaged store, not an absent model.
	if err := os.Remove(blobPath("missing")); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"truncated", "flipped", "missing"} {
		// Drop residency so the query must read the damaged artefact.
		if !srv.Registry().Evict(api.DefaultTenant, name) {
			t.Fatalf("%s: not resident before eviction", name)
		}
		if got := post(name); got != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", name, got)
		}
	}
	if got := post("never-installed"); got != http.StatusNotFound {
		t.Errorf("absent model: status %d, want 404", got)
	}
	// The server survived all of it.
	if _, err := cl.Models(ctx); err != nil {
		t.Fatalf("server unhealthy after corrupt reads: %v", err)
	}
}

// TestCheckpointResumesFromStoreOnFreshServer kills a server mid-MC,
// then resumes the flow on a fresh server that shares only the
// artefact store: everything it knows about the half-finished flow
// comes from the store's checkpoint.
func TestCheckpointResumesFromStoreOnFreshServer(t *testing.T) {
	storeDir := t.TempDir()
	req := api.FlowRequest{
		TenantRef:       api.TenantRef{Model: "ckpt-store"},
		Problem:         "synth",
		PopSize:         24,
		Generations:     8,
		MCSamples:       60,
		Seed:            3,
		Workers:         1,
		CheckpointEvery: 1,
	}

	slow := map[string]ProblemFactory{
		"synth": func() core.CircuitProblem {
			return slowMCProblem{delay: 2 * time.Millisecond}
		},
	}
	srv1 := New(Config{ModelsDir: storeDir,
		FlowWorkers: 1, Problems: slow,
		Metrics: &core.Metrics{}, Logger: quietLog()})
	st, err := srv1.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, serr := srv1.Jobs().Status(api.DefaultTenant, st.ID)
		if serr != nil {
			t.Fatal(serr)
		}
		if got.ParetoPoints >= 1 {
			break
		}
		if api.Terminal(got.State) {
			t.Fatalf("job finished before shutdown could interrupt it: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("no MC point completed in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdown(t, srv1)

	// The checkpoint must be in the shared store.
	ck := store.Key{Tenant: api.DefaultTenant, Kind: store.KindCheckpoint, Name: "ckpt-store"}
	if _, err := store.OpenDisk(storeDir).Stat(ck); err != nil {
		t.Fatalf("no checkpoint in the store after shutdown: %v", err)
	}

	srv2 := New(Config{ModelsDir: storeDir,
		FlowWorkers: 1, Problems: synthFactory(),
		Metrics: &core.Metrics{}, Logger: quietLog()})
	defer shutdown(t, srv2)
	st2, err := srv2.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv2.Jobs(), st2.ID, 60*time.Second)
	fin, err := srv2.Jobs().Status(api.DefaultTenant, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded {
		t.Fatalf("resumed job: state %q (%s)", fin.State, fin.Error)
	}
	if !fin.Resumed {
		t.Error("replica restarted the flow instead of resuming from the store checkpoint")
	}
	if fin.Request.Version == "" {
		t.Error("finished job reports no installed model version")
	}
	if _, err := srv2.Registry().Info(api.DefaultTenant, "ckpt-store"); err != nil {
		t.Fatalf("model not installed after resume: %v", err)
	}
	// Success retires the checkpoint from the store.
	if _, err := store.OpenDisk(storeDir).Stat(ck); err == nil {
		t.Error("checkpoint still in the store after the flow succeeded")
	}
}

// TestLegacyRouteByteIdentity pins the compatibility contract: for a
// default-tenant model the pre-tenancy route emits no "tenant" key,
// and the tenant-scoped alias answers byte-identical JSON.
func TestLegacyRouteByteIdentity(t *testing.T) {
	srv := bootServer(t, Config{ModelsDir: t.TempDir()})
	defer shutdown(t, srv)
	if _, err := srv.Registry().Install(api.DefaultTenant, "m1", synthModel(t, 12)); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"model":"m1","specs":[{"name":"gain_db","sense":">=","bound":50},{"name":"pm_deg","sense":">=","bound":76}]}`)

	post := func(path string) []byte {
		t.Helper()
		resp, err := http.Post("http://"+srv.Addr()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		return b
	}

	legacy := post("/v1/yield/query")
	if bytes.Contains(legacy, []byte(`"tenant"`)) {
		t.Errorf("legacy response leaks a tenant key: %s", legacy)
	}
	scoped := post("/v1/t/" + api.DefaultTenant + "/yield/query")
	if !bytes.Equal(legacy, scoped) {
		t.Errorf("legacy and default-scoped responses differ:\n%s\n%s", legacy, scoped)
	}

	// The response is the documented wire shape, key for key.
	var out api.QueryResponse
	if err := json.Unmarshal(legacy, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "m1" || out.Tenant != "" || len(out.Params) != 3 {
		t.Errorf("decoded legacy response: %+v", out)
	}
	for _, key := range []string{`"model"`, `"targets"`, `"delta_pct"`, `"front_perf"`, `"params"`, `"predicted_yield"`, `"curve_param"`} {
		if !strings.Contains(string(legacy), key) {
			t.Errorf("legacy response missing %s: %s", key, legacy)
		}
	}
}
