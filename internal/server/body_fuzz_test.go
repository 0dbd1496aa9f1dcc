package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
)

// e2eModel is scripts/e2e-store.sh's model: a 4-point synthetic front,
// the fewest points a model table accepts.
const e2eModel = `{"name":"e2e-ota","objectives":["gain_db","pm_deg"],
 "params":["P1","P2","P3"],"units":["um","um","um"],
 "points":[
  {"perf":[45,85],"delta_pct":[1.0,0.5],"params":[10,10,10]},
  {"perf":[48,81],"delta_pct":[1.1,0.53],"params":[27,10,10]},
  {"perf":[52,77],"delta_pct":[1.15,0.57],"params":[43,10,10]},
  {"perf":[55,73],"delta_pct":[1.2,0.6],"params":[60,10,10]}]}`

// FuzzInstallAndQuery posts fuzzed bytes to POST /v1/models and then to
// POST /v1/yield/query through the server's full handler stack, on a
// fresh Disk store per input. The install route runs core.BuildModel on
// untrusted points. Every answer must be a 200 or 201 whose body is
// JSON, or a 4xx whose body is an api.Error, within 2 s: a panic (which
// httpx.Recover turns into a 500), a hang or a 5xx is a finding. The
// flow route is left out, because every valid body starts a job.
func FuzzInstallAndQuery(f *testing.F) {
	query := func(gain, pm string) string {
		return `{"model":"e2e-ota","specs":[{"name":"gain_db","sense":">=","bound":` + gain +
			`},{"name":"pm_deg","sense":">=","bound":` + pm + `}]}`
	}
	huge := `{"name":"huge","objectives":["a","b"],"params":["p"],"points":[
  {"perf":[-1.7e308,1.7e308],"delta_pct":[1e308,-1e308],"params":[1.7e308]},
  {"perf":[-1e308,1e308],"delta_pct":[1,1],"params":[-1.7e308]},
  {"perf":[1e308,-1e308],"delta_pct":[1.7e308,1],"params":[1.7e308]},
  {"perf":[1.7e308,-1.7e308],"delta_pct":[1,1.7e308],"params":[-1.7e308]}]}`
	hugeQuery := `{"model":"huge","guard_scale":1.7e308,"specs":[{"name":"a","sense":">=","bound":1.6e308},{"name":"b","sense":"<=","bound":-1e308}]}`
	// Parameter steps that overflow: the install must refuse them, or
	// every query answers 500 with a NaN parameter.
	steep := `{"name":"e2e-ota","objectives":["gain_db","pm_deg"],"params":["P1"],"points":[
  {"perf":[45,85],"delta_pct":[1,0.5],"params":[1.7e308]},
  {"perf":[48,81],"delta_pct":[1,0.5],"params":[1e308]},
  {"perf":[52,77],"delta_pct":[1,0.5],"params":[-1e308]},
  {"perf":[55,73],"delta_pct":[1,0.5],"params":[-1.7e308]}]}`
	for _, seed := range [][2]string{
		{e2eModel, query("50", "76")},
		{e2eModel, `{"queries":[` + query("46", "80") + `,` + query("54", "74") + `,{"model":"nope"}]}`},
		{e2eModel, query("60", "90")},     // out of domain: above both fronts
		{e2eModel, query("-1e308", "-1")}, // out of domain: below
		{e2eModel, `{"model":"e2e-ota","version":"00","specs":[]}`},
		{huge, hugeQuery},
		{steep, query("50", "75")},
		{huge, `{"model":"huge","specs":[{"name":"a","sense":">=","bound":0},{"name":"b","sense":">=","bound":-1.7e308}]}`},
		{`{"name":"../x","points":[]}`, `{`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, install, query []byte) {
		srv := New(Config{ModelsDir: t.TempDir(), FlowWorkers: 1, Metrics: &core.Metrics{}, Logger: quietLog()})
		defer srv.Shutdown(context.Background())
		h := srv.Handler()
		postWithin(t, h, "/v1/models", install, http.StatusCreated)
		postWithin(t, h, "/v1/yield/query", query, http.StatusOK)
	})
}

// postWithin posts body to path and fails unless the answer is ok with
// a JSON body, or a 4xx carrying an api.Error, within 2 s.
func postWithin(t *testing.T, h http.Handler, path string, body []byte, ok int) {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("POST %s %q: no answer within 2 s", path, body)
	}
	switch {
	case rec.Code == ok:
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST %s %q: HTTP %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body)
		}
	case rec.Code >= 400 && rec.Code < 500:
		var e api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Status != rec.Code || e.Message == "" {
			t.Fatalf("POST %s %q: HTTP %d with body %q, want an api.Error", path, body, rec.Code, rec.Body)
		}
	default:
		t.Fatalf("POST %s %q: HTTP %d %s", path, body, rec.Code, rec.Body)
	}
}
