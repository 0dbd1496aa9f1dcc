// Package server implements the ayd service layer: the repo's two
// workloads — cheap yield queries against built behavioural models and
// expensive model-building flow jobs — exposed over HTTP/JSON, with a
// tenant dimension throughout. Every route exists in two spellings:
// tenant-scoped under /v1/t/{tenant}/... and the original /v1/... form,
// which aliases the "default" tenant so every pre-tenancy client keeps
// working (default-tenant responses are byte-identical to the
// pre-tenancy wire format).
//
// Query path: POST /v1/t/{tenant}/yield/query answers the paper's
// Table 3 spec query (guard-banded targets, interpolated parameters,
// predicted yield) from an LRU-bounded model registry. Models persist
// in a pluggable artefact store (internal/store) — content-addressed,
// shared across replicas — with their response JSON pre-rendered at
// install time (compiled.go), then published in an immutable snapshot
// behind an atomic pointer (registry.go). core.Model.DesignInto answers
// every query, so the steady-state query path takes no locks and
// performs no allocations: pooled scratch, segment-hint spline
// evaluation and pre-rendered response JSON. A restarted replica
// warm-starts from the store, preparing each model on first query.
//
// Job path: POST /v1/t/{tenant}/flows submits a core.RunFlow job onto a
// bounded worker pool; GET .../flows/{id} polls status and GET
// .../flows/{id}/events streams the typed core.Observer event stream
// as Server-Sent Events (jobs.go, sse.go). Finished models are
// installed into the submitting tenant's catalog, and checkpoints are
// mirrored through the artefact store, so any replica sharing the store
// can resume a job.
//
// Shutdown is graceful: in-flight queries drain, running flows are
// cancelled cooperatively and leave resumable checkpoints, and SSE
// streams close.
package server

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/netip"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/httpx"
	"analogyield/internal/process"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
	"analogyield/internal/telemetry"
)

// DefaultModelsDir is the store root of a Config without ModelsDir, and
// the default of `ayd serve -models`.
const DefaultModelsDir = "ayd-models"

// Config assembles a Server. Zero values select the documented
// defaults.
type Config struct {
	// Addr is the listen address for Start ("127.0.0.1:0" in tests).
	Addr string
	// Store is the artefact store persisting models, job checkpoints,
	// job records and leases: the server keeps no other state on disk.
	// Nil = a store.Disk rooted at ModelsDir; set it to share one handle
	// or to wrap the store.
	Store store.Store
	// ModelsDir roots the default store (empty = DefaultModelsDir,
	// relative to the working directory). It is unused when Store is
	// set.
	ModelsDir string
	// MaxModels bounds the registry's resident models (0 → 8).
	MaxModels int
	// FlowWorkers sizes the job pool (0 → 2); flowQueueDepth jobs may
	// wait behind it.
	FlowWorkers int
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers before being dropped — the slowloris guard
	// (0 → 5s, negative → no limit).
	ReadHeaderTimeout time.Duration
	// IdleTimeout is how long a keep-alive connection may sit idle
	// between requests before the server closes it (0 → 120s,
	// negative → no limit).
	IdleTimeout time.Duration
	// MaxHeaderBytes caps request header size per connection
	// (0 → the stdlib's 1 MiB default).
	MaxHeaderBytes int
	// MaxInFlight caps concurrent HTTP requests (0 → 256).
	MaxInFlight int
	// HeavyInFlight is a tighter per-route cap on the expensive routes
	// (flow submission, model install), so a burst of uploads cannot
	// starve the cheap query path (0 → 32).
	HeavyInFlight int
	// MaxBodyBytes caps request body size; oversized bodies are
	// rejected with 413 (0 → 4 MiB, negative → unlimited).
	MaxBodyBytes int64
	// QueryTimeout bounds non-streaming routes (0 → 30s).
	QueryTimeout time.Duration
	// DrainTimeout bounds Shutdown's graceful drain when the caller's
	// context carries no deadline of its own (0 → 30s).
	DrainTimeout time.Duration
	// TrustedProxies lists CIDRs (or bare IPs) of reverse proxies whose
	// X-Forwarded-For is honoured when resolving the client IP for the
	// request log. Empty = no proxy is trusted (the TCP peer is the
	// client).
	TrustedProxies []string
	// CORSOrigins enables cross-origin browser access for the listed
	// origins ("*" allows any). Empty = no CORS headers are emitted.
	CORSOrigins []string
	// TLSCertFile/TLSKeyFile enable TLS on Start with modern defaults
	// (TLS 1.2+, ECDHE+AEAD suites — see httpx.ModernTLSConfig). Both
	// must be set together.
	TLSCertFile string
	TLSKeyFile  string
	// ReplicaID names this process in a multi-replica deployment and
	// turns on cluster mode: flow jobs are claimed through store leases
	// (the Store must be shared across replicas — a Disk store on a
	// common directory), checkpoints are written fenced, and a takeover
	// scanner adopts jobs whose owner stopped heartbeating. Empty =
	// single-node, byte-identical behaviour to earlier releases.
	ReplicaID string
	// LeaseTTL is the job-lease heartbeat window: a replica silent for
	// this long loses its jobs to a peer (0 → 15s).
	LeaseTTL time.Duration
	// Problems and Processes name what flows may be submitted against.
	// Nil selects the built-ins: problem "ota", process "c35".
	Problems  map[string]ProblemFactory
	Processes map[string]ProcessFactory
	// Metrics is the shared counter registry (nil = private). The
	// server adds per-route latency histograms to it.
	Metrics *core.Metrics
	// Logger receives the structured request/job log (nil = slog
	// default).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ModelsDir == "" {
		c.ModelsDir = DefaultModelsDir
	}
	if c.Store == nil {
		c.Store = store.OpenDisk(c.ModelsDir)
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 8
	}
	if c.FlowWorkers <= 0 {
		c.FlowWorkers = 2
	}
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.HeavyInFlight <= 0 {
		c.HeavyInFlight = 32
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Problems == nil {
		c.Problems = map[string]ProblemFactory{
			"ota": func() core.CircuitProblem { return core.NewOTAProblem() },
		}
	}
	if c.Processes == nil {
		c.Processes = map[string]ProcessFactory{"c35": process.C35}
	}
	if c.Metrics == nil {
		c.Metrics = &core.Metrics{}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server ties the registry, job manager and HTTP front-end together.
type Server struct {
	cfg     Config
	reg     *Registry
	jobs    *JobManager
	log     *slog.Logger
	proxies []netip.Prefix // parsed Config.TrustedProxies

	hs *http.Server // set by Start
	ln net.Listener

	shutdownCh chan struct{} // closed when Shutdown begins; ends SSE streams
}

// New builds a Server (not yet listening; Handler serves in-process,
// Start binds Config.Addr).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := NewRegistry(cfg.Store, cfg.MaxModels)
	proxies, err := httpx.ParseProxies(cfg.TrustedProxies)
	if err != nil {
		// A typo'd proxy CIDR must not silently widen trust: trust
		// nothing and say so.
		cfg.Logger.Warn("ignoring trusted proxies", "err", err)
		proxies = nil
	}
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		log:        cfg.Logger,
		proxies:    proxies,
		shutdownCh: make(chan struct{}),
	}
	s.jobs = NewJobManager(cfg.FlowWorkers, flowQueueDepth, reg,
		cfg.Problems, cfg.Processes, cfg.Metrics, cfg.Logger)
	if cfg.ReplicaID != "" {
		s.jobs.EnableCluster(cfg.ReplicaID, cfg.LeaseTTL)
	}
	return s
}

// Registry exposes the model store (tests and embedding callers
// pre-install models).
func (s *Server) Registry() *Registry { return s.reg }

// Jobs exposes the job manager.
func (s *Server) Jobs() *JobManager { return s.jobs }

// Metrics exposes the shared counter registry.
func (s *Server) Metrics() *core.Metrics { return s.cfg.Metrics }

// Handler builds the routed, middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	m := s.cfg.Metrics

	// Hot read routes get the inline deadline guard; the heavy mutating
	// routes below keep http.TimeoutHandler's hard 503 cut-off (their
	// handlers can genuinely stall, and they are far off the fast path).
	timed := func(name string, h http.HandlerFunc) http.Handler {
		return observeLatency(m.Histogram(name), withDeadline(s.cfg.QueryTimeout, h))
	}
	timedHard := func(name string, h http.HandlerFunc) http.Handler {
		return observeLatency(m.Histogram(name), withTimeout(s.cfg.QueryTimeout, h))
	}
	// Every route is registered twice: tenant-scoped under
	// /v1/t/{tenant}/..., and at the pre-tenancy /v1/... path, which
	// aliases the default tenant (tenantFromPath resolves the absent
	// {tenant} segment).
	both := func(method, suffix string, h http.Handler) {
		mux.Handle(method+" /v1/"+suffix, h)
		mux.Handle(method+" /v1/t/{tenant}/"+suffix, h)
	}
	// The expensive routes (flow submission, model install/delete) get
	// their own tighter in-flight cap on top of the global one, so a
	// burst of uploads degrades uploads, not the query path.
	heavy := func(h http.Handler) http.Handler {
		return httpx.LimitConcurrency(s.cfg.HeavyInFlight, h)
	}
	both("POST", "yield/query", timed("query", s.handleQuery))
	both("GET", "models", timed("models", s.handleModels))
	both("GET", "models/{name}", timed("models", s.handleModel))
	both("POST", "models", heavy(timedHard("model_install", s.handleInstallModel)))
	both("DELETE", "models/{name}", heavy(timedHard("model_install", s.handleDeleteModel)))
	both("POST", "flows", heavy(timedHard("flow_submit", s.handleSubmit)))
	both("GET", "flows", timed("flow_status", s.handleJobs))
	both("GET", "flows/{id}", timed("flow_status", s.handleJob))
	both("DELETE", "flows/{id}", timed("flow_status", s.handleCancel))
	// SSE: latency histogram would only measure stream lifetime, and
	// TimeoutHandler breaks flushing — the events route is wrapped by
	// neither.
	both("GET", "flows/{id}/events", http.HandlerFunc(s.handleEvents))
	mux.Handle("GET /v1/tenants", timed("models", s.handleTenants))
	mux.Handle("GET /healthz", http.HandlerFunc(handleHealth))
	mux.Handle("GET /metrics", telemetry.Handler(m))

	// Hardening chain, innermost (closest to the mux) first: body
	// limits, global in-flight cap, CORS, then panic recovery, the
	// access log, and — outermost, so the context values they set reach
	// everything below including the log line — client-IP resolution
	// and request IDs.
	var h http.Handler = mux
	h = httpx.MaxBytes(s.cfg.MaxBodyBytes, h)
	h = httpx.LimitConcurrency(s.cfg.MaxInFlight, h)
	h = httpx.CORS(s.cfg.CORSOrigins, h)
	h = httpx.Recover(s.log, h)
	h = httpx.AccessLog(s.log, h)
	h = httpx.RealIP(s.proxies, h)
	h = httpx.RequestID(h)
	return h
}

// Start binds Config.Addr and serves until Shutdown, over TLS with
// modern defaults when Config.TLSCertFile/TLSKeyFile are set. It
// returns once the listener is bound; serving continues in the
// background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	useTLS := s.cfg.TLSCertFile != "" || s.cfg.TLSKeyFile != ""
	if useTLS {
		tc, err := httpx.LoadTLS(s.cfg.TLSCertFile, s.cfg.TLSKeyFile)
		if err != nil {
			ln.Close()
			return err
		}
		ln = tls.NewListener(ln, tc)
	}
	// Negative timeouts disable the limit.
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: max(s.cfg.ReadHeaderTimeout, 0),
		IdleTimeout:       max(s.cfg.IdleTimeout, 0),
		MaxHeaderBytes:    s.cfg.MaxHeaderBytes,
	}
	s.hs, s.ln = hs, ln
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("serve", "err", err)
		}
	}()
	s.log.Info("listening", "addr", ln.Addr().String(), "tls", useTLS)
	return nil
}

// Addr reports the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server gracefully: new connections stop, SSE
// streams close, in-flight requests finish, running flows checkpoint
// and cancel, and the model registry empties. The ctx bounds the whole
// drain; when it carries no deadline of its own, Config.DrainTimeout
// applies.
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.shutdownCh:
		return nil // already shut down
	default:
		close(s.shutdownCh)
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	var firstErr error
	if s.hs != nil {
		firstErr = s.hs.Shutdown(ctx)
	}
	if err := s.jobs.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	s.reg.Close()
	return firstErr
}

// --- handlers ---

// writeJSON lives in json.go (pooled encoder, explicit Content-Length).

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, &api.Error{Status: status, Message: fmt.Sprintf(format, args...)})
}

// decodeStatus maps a request-body decode error to an HTTP status: a
// body truncated by the httpx.MaxBytes cap is 413, anything else
// malformed is 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errStatus maps a service error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrUnknownJob),
		errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrInvalidKey), errors.Is(err, core.ErrTablePoints):
		return http.StatusBadRequest
	case errors.Is(err, store.ErrCorrupt):
		return http.StatusUnprocessableEntity
	case errors.Is(err, store.ErrLeaseHeld):
		// Another replica owns the job; the submitter should retry there
		// (or wait for the owner to finish).
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, errUnrepresentable):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// tenantFromPath resolves a request's effective tenant: the {tenant}
// path segment on /v1/t/ routes, the default tenant on the pre-tenancy
// aliases.
func tenantFromPath(r *http.Request) string {
	if t := r.PathValue("tenant"); t != "" {
		return t
	}
	return api.DefaultTenant
}

// resolveTenant reconciles the path tenant with a request body's
// TenantRef. On the legacy aliases the body tenant (usually absent ⇒
// default) stands; on tenant-scoped routes an absent body tenant
// inherits the path, and a contradicting one is an error (a request
// must not silently act on a namespace other than the one in its URL).
func resolveTenant(r *http.Request, ref *api.TenantRef) error {
	pt := r.PathValue("tenant")
	if pt == "" {
		return nil
	}
	if ref.Tenant != "" && ref.Tenant != pt {
		return fmt.Errorf("body tenant %q contradicts path tenant %q", ref.Tenant, pt)
	}
	ref.Tenant = pt
	return nil
}

// queryBody accepts both the single and the batch shape on one route.
type queryBody struct {
	api.QueryRequest
	Queries []api.QueryRequest `json:"queries"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var body queryBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, decodeStatus(err), "bad request body: %v", err)
		return
	}
	if err := resolveTenant(r, &body.TenantRef); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i := range body.Queries {
		if err := resolveTenant(r, &body.Queries[i].TenantRef); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if len(body.Queries) > 0 {
		// One model resolution per (tenant, model, version) and one warm
		// scratch for the whole batch, with no goroutine fan-out.
		results := s.reg.QueryBatch(r.Context(), body.Queries)
		writeJSON(w, http.StatusOK, api.BatchQueryResponse{Results: results})
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	rendered, err := s.reg.QueryRendered(r.Context(), body.QueryRequest, sc)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSONBytes(w, http.StatusOK, rendered)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	tenant := tenantFromPath(r)
	if err := store.ValidateKey(tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	list := s.reg.List(tenant)
	if list == nil {
		list = []api.ModelInfo{} // an empty catalog is [], not null
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Info(tenantFromPath(r), r.PathValue("name"))
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleInstallModel uploads a finished model artefact into the
// tenant's catalog: the server rebuilds the tables from the Pareto
// points, persists the canonical payload to the store and makes the
// model queryable, answering with the catalog entry (including the
// content-addressed version).
func (s *Server) handleInstallModel(w http.ResponseWriter, r *http.Request) {
	var req api.InstallModelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, decodeStatus(err), "bad request body: %v", err)
		return
	}
	tenant := tenantFromPath(r)
	pts := make([]core.ParetoPoint, len(req.Points))
	for i, p := range req.Points {
		pts[i] = core.ParetoPoint{Perf: p.Perf, DeltaPct: p.DeltaPct, Params: p.Params}
	}
	m, err := core.BuildModel(pts, req.ObjectiveNames, req.ParamNames, req.ParamUnits,
		core.ModelOptions{MaxTablePoints: req.MaxTablePoints})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if _, err := s.reg.Install(tenant, req.Name, m); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	info, err := s.reg.Info(tenant, req.Name)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(tenantFromPath(r), r.PathValue("name")); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.reg.Tenants()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.FlowRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, decodeStatus(err), "bad request body: %v", err)
		return
	}
	if err := resolveTenant(r, &req.TenantRef); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := s.jobs.Submit(req)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List(tenantFromPath(r)))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Status(tenantFromPath(r), r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(tenantFromPath(r), r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// healthBody is the whole /healthz answer: liveness only. Counters and
// gauges are on GET /metrics.
var healthBody = []byte(`{"status":"ok"}`)

func handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSONBytes(w, http.StatusOK, healthBody)
}
