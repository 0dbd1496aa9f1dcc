package server

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/httpx"
	"analogyield/internal/server/api"
	"analogyield/internal/server/client"
	"analogyield/internal/telemetry"
)

// TestOversizedBody413 pushes a body past Config.MaxBodyBytes through
// the real handler stack and expects a 413 (not a generic 400): the
// decode error is a *http.MaxBytesError and decodeStatus maps it.
func TestOversizedBody413(t *testing.T) {
	srv := New(Config{
		ModelsDir:    t.TempDir(),
		Metrics:      &core.Metrics{},
		Logger:       quietLog(),
		MaxBodyBytes: 256,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := api.InstallModelRequest{Name: "huge"}
	for i := 0; i < 200; i++ {
		big.Points = append(big.Points, api.ModelPoint{Params: []float64{1, 2, 3}})
	}
	body, _ := json.Marshal(big)
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %d bytes > cap 256)", resp.StatusCode, len(body))
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("413 body not JSON: %v", err)
	}
	if apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("error body status = %d", apiErr.Status)
	}

	// A small request on the same server still works.
	resp2, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small request status = %d", resp2.StatusCode)
	}
}

// TestOverflowingGuardScale: a finite guard_scale whose product with Δ%
// overflows used to answer 200 with an empty body (an infinite target
// passed the feasibility test, then failed to encode). The single route
// must answer 422 with the overflow named; a batch must carry it as that
// query's error and still answer the others.
func TestOverflowingGuardScale(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), Metrics: &core.Metrics{}, Logger: quietLog()})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path string, v any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	install := api.InstallModelRequest{Name: "ovf", ObjectiveNames: []string{"a", "b"},
		ParamNames: []string{"P1"}, ParamUnits: []string{"um"}}
	for _, p := range overflowPoints() {
		install.Points = append(install.Points, api.ModelPoint{Perf: p.Perf, DeltaPct: p.DeltaPct, Params: p.Params})
	}
	if status, b := post("/v1/models", install); status != http.StatusCreated {
		t.Fatalf("install: status %d: %s", status, b)
	}
	query := func(scale float64) api.QueryRequest {
		return api.QueryRequest{
			TenantRef: api.TenantRef{Model: "ovf"},
			Specs: [2]api.Spec{
				{Name: "a", Sense: "<=", Bound: 15},
				{Name: "b", Sense: "<=", Bound: -3},
			},
			GuardScale: scale,
		}
	}
	const want = "core: guard-banded b target +Inf is not finite (guard-band scale 1e+308)"

	status, b := post("/v1/yield/query", query(1e308))
	var apiErr api.Error
	if err := json.Unmarshal(b, &apiErr); err != nil {
		t.Fatalf("single route: status %d, body %q is not an api.Error: %v", status, b, err)
	}
	if status != http.StatusUnprocessableEntity || apiErr.Message != want {
		t.Fatalf("single route: status %d, error %q; want 422 and %q", status, apiErr.Message, want)
	}

	status, b = post("/v1/yield/query", map[string]any{
		"queries": []api.QueryRequest{query(1), query(1e308), query(2)},
	})
	var batch api.BatchQueryResponse
	if err := json.Unmarshal(b, &batch); err != nil || status != http.StatusOK {
		t.Fatalf("batch route: status %d, body %q: %v", status, b, err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch route: %d results, want 3", len(batch.Results))
	}
	if batch.Results[1].Error != want {
		t.Errorf("batch route: overflowing query error %q, want %q", batch.Results[1].Error, want)
	}
	for _, i := range []int{0, 2} {
		if r := batch.Results[i]; r.Error != "" || r.Response == nil {
			t.Errorf("batch route: query %d not answered (error %q)", i, r.Error)
		}
	}
}

// TestWriteJSONEncodeFailure: a body that cannot be encoded is answered
// 500 with an api.Error, not with the handler's status and no body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"v": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var apiErr api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatalf("body %q is not an api.Error: %v", rec.Body.Bytes(), err)
	}
	if apiErr.Status != http.StatusInternalServerError || apiErr.Message == "" {
		t.Errorf("error body %+v", apiErr)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %s for a %d-byte body", got, rec.Body.Len())
	}
}

// recordingTransport captures the headers of every request it sends.
type recordingTransport struct {
	base http.RoundTripper
	sent []http.Header
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.sent = append(rt.sent, r.Header.Clone())
	return rt.base.RoundTrip(r)
}

// TestRequestIDRoundTrip drives the Go client against a real server and
// checks the full identity loop: the client generates an X-Request-ID,
// the server echoes it on the response, and a failing call's api.Error
// carries it back so the user can quote it.
func TestRequestIDRoundTrip(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), Metrics: &core.Metrics{}, Logger: quietLog()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rt := &recordingTransport{base: http.DefaultTransport}
	cl := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: rt}))

	_, err := cl.Query(context.Background(), api.QueryRequest{
		TenantRef: api.TenantRef{Model: "no-such-model"},
		Specs:     [2]api.Spec{{Name: "gain_db", Bound: 50}, {Name: "pm_deg", Bound: 80}},
	})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *api.Error, got %v", err)
	}
	if len(rt.sent) != 1 {
		t.Fatalf("recorded %d requests", len(rt.sent))
	}
	sentID := rt.sent[0].Get(httpx.RequestIDHeader)
	if sentID == "" {
		t.Fatal("client sent no X-Request-ID")
	}
	if apiErr.RequestID != sentID {
		t.Fatalf("api.Error.RequestID = %q, want the sent ID %q", apiErr.RequestID, sentID)
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and pins the
// exposition's counters against the same registry's snapshot.
func TestMetricsEndpoint(t *testing.T) {
	metrics := &core.Metrics{}
	srv := New(Config{ModelsDir: t.TempDir(), Metrics: metrics, Logger: quietLog()})
	if _, err := srv.Registry().Install(api.DefaultTenant, "demo", synthModel(t, 16)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	for i := 0; i < 5; i++ {
		if _, err := cl.Query(context.Background(), api.QueryRequest{
			TenantRef: api.TenantRef{Model: "demo"},
			Specs:     [2]api.Spec{{Name: "gain_db", Bound: 50}, {Name: "pm_deg", Bound: 75}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// The query route histogram must have counted the 5 queries, and the
	// scalar counters must match the registry snapshot.
	snap := metrics.Snapshot()
	var routeCount int64
	for name, hs := range snap.Latencies {
		if strings.Contains(name, "query") {
			routeCount += hs.Count
		}
	}
	if routeCount < 5 {
		t.Fatalf("snapshot query-route count = %d, want >= 5", routeCount)
	}
	for _, want := range []string{
		"# TYPE ayd_http_request_duration_seconds histogram",
		`ayd_http_request_duration_seconds_bucket{route=`,
		fmt.Sprintf("ayd_flows_total %d", snap.Flows),
		fmt.Sprintf("ayd_evaluations_total %d", snap.Evaluations),
		"go_goroutines ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The histogram count line for the query route must report the
	// snapshot's number.
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "ayd_http_request_duration_seconds_count") && strings.Contains(line, "query") {
			found = true
			if !strings.HasSuffix(line, fmt.Sprint(routeCount)) {
				t.Errorf("count line %q, want suffix %d", line, routeCount)
			}
		}
	}
	if !found {
		t.Error("no _count series for the query route")
	}
}

// selfSigned writes a throwaway ECDSA certificate for 127.0.0.1 and
// returns the cert/key paths plus a pool trusting it.
func selfSigned(t *testing.T) (certFile, keyFile string, pool *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ayd-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	pool = x509.NewCertPool()
	pool.AppendCertsFromPEM(certPEM)
	return certFile, keyFile, pool
}

// TestTLSServe boots the server with a self-signed certificate and runs
// a real HTTPS round trip, asserting the negotiated protocol meets the
// modern floor.
func TestTLSServe(t *testing.T) {
	certFile, keyFile, pool := selfSigned(t)
	srv := New(Config{
		Addr:        "127.0.0.1:0",
		ModelsDir:   t.TempDir(),
		Metrics:     &core.Metrics{},
		Logger:      quietLog(),
		TLSCertFile: certFile,
		TLSKeyFile:  keyFile,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	hc := &http.Client{Transport: &http.Transport{
		TLSClientConfig: &tls.Config{RootCAs: pool},
	}}
	resp, err := hc.Get("https://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("HTTPS round trip: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.TLS == nil || resp.TLS.Version < tls.VersionTLS12 {
		t.Fatalf("TLS state %+v, want >= TLS1.2", resp.TLS)
	}

	// Plain HTTP against the TLS port must not be served — Go's TLS
	// listener answers it with a 400, never the handler.
	if resp, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("plaintext request served by a TLS listener")
		}
	}
}

// TestShutdownUsesDrainTimeout checks that a deadline-free Shutdown is
// bounded by Config.DrainTimeout instead of hanging on a stuck client.
func TestShutdownUsesDrainTimeout(t *testing.T) {
	srv := New(Config{
		Addr:         "127.0.0.1:0",
		ModelsDir:    t.TempDir(),
		Metrics:      &core.Metrics{},
		Logger:       quietLog(),
		DrainTimeout: 150 * time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	// Park a raw connection with an unfinished request so the drain can
	// never complete on its own.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/models HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n")

	start := time.Now()
	srv.Shutdown(context.Background())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %s; DrainTimeout not applied", elapsed)
	}
}

// TestMaxTablePointsBelowFour: no table can be built with fewer than
// four knots, and max_table_points 1 makes BuildModel's thinning step
// infinite. Install must answer 422 and flow submit 400, both naming
// core.ErrTablePoints, before any work runs.
func TestMaxTablePointsBelowFour(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), Metrics: &core.Metrics{}, Logger: quietLog(),
		FlowWorkers: 1, Problems: synthFactory()})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(t *testing.T, path string, v any) (int, api.Error) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr api.Error
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("%s: status %d, body is not an api.Error: %v", path, resp.StatusCode, err)
		}
		return resp.StatusCode, apiErr
	}
	t.Run("install", func(t *testing.T) {
		for _, n := range []int{1, 2, 3} {
			install := installReq(fmt.Sprintf("tiny%d", n), 12, 45)
			install.MaxTablePoints = n
			status, apiErr := post(t, "/v1/t/acme/models", install)
			if status != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Message, core.ErrTablePoints.Error()) {
				t.Errorf("max_table_points %d: status %d, error %q; want 422 naming %q",
					n, status, apiErr.Message, core.ErrTablePoints)
			}
		}
		if got := srv.Registry().Resident(); got != 0 {
			t.Errorf("%d models resident after refused installs", got)
		}
	})
	t.Run("flow", func(t *testing.T) {
		for _, n := range []int{1, 2, 3} {
			flow := smallFlowReq(fmt.Sprintf("tiny%d", n))
			flow.MaxTablePoints = n
			status, apiErr := post(t, "/v1/flows", flow)
			if status != http.StatusBadRequest || !strings.Contains(apiErr.Message, core.ErrTablePoints.Error()) {
				t.Errorf("max_table_points %d: status %d, error %q; want 400 naming %q",
					n, status, apiErr.Message, core.ErrTablePoints)
			}
		}
	})
}

// TestFlowPopSizeOneRefused: the WBGA cannot breed from one individual,
// so flow submit refuses a population of one with 422 naming
// core.ErrPopSize, as it does a negative size, instead of accepting a
// job that then fails.
func TestFlowPopSizeOneRefused(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir(), Metrics: &core.Metrics{}, Logger: quietLog(),
		FlowWorkers: 1, Problems: synthFactory()})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, pop := range []int{1, -1} {
		flow := smallFlowReq(fmt.Sprintf("pop%d", pop))
		flow.PopSize = pop
		body, err := json.Marshal(flow)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/flows", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr api.Error
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("pop_size %d: status %d, body is not an api.Error: %v", pop, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Message, core.ErrPopSize.Error()) {
			t.Errorf("pop_size %d: status %d, error %q; want 422 naming %q",
				pop, resp.StatusCode, apiErr.Message, core.ErrPopSize)
		}
	}
}
