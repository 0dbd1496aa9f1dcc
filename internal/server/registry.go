package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
	"analogyield/internal/store"
	"analogyield/internal/yield"
)

// ErrUnknownModel reports a query against a (tenant, name) that is
// neither resident nor present in the artefact store.
var ErrUnknownModel = errors.New("server: unknown model")

// Registry is the read-mostly model cache over the durable artefact
// store (store.Store) behind the query path. Models are addressed by
// (tenant, name, version): installs persist the canonical payload to
// the store and make the model resident; cache misses load lazily from
// the store (so a restarted replica warm-starts from whatever the
// store holds, compiling each model on its first query); at most cap
// models stay resident, the least recently queried evicted first.
//
// The resident set is published as an immutable snapshot behind an
// atomic.Pointer: queries load the snapshot and answer without taking
// any lock, writers (install, evict, close) serialise on a mutex and
// swap in a copied map. Each entry is compiled once at install time
// (CompileModel) into the struct-of-arrays form the hot path evaluates;
// recency for LRU eviction is a per-entry atomic counter fed by a
// global clock, so reads stay lock-free.
type Registry struct {
	st  store.Store
	cap int

	mu    sync.Mutex // serialises snapshot writers
	snap  atomic.Pointer[snapshot]
	clock atomic.Int64 // LRU recency source

	// compiled and interpreted count queries by the engine that answered
	// them, so the compiled-path hit rate is observable (QueryStats). They
	// tick on every request, so they are sharded like the rest of the
	// per-request counters — at six-figure qps a lone atomic here is a
	// cross-core cache-line fight.
	compiled    core.ShardedCounter
	interpreted core.ShardedCounter
}

// snapshot is one immutable published generation of the resident set,
// keyed by tenant-qualified name.
type snapshot struct {
	entries map[string]*modelEntry
}

// entryKey qualifies a model name by its tenant. Validated segments
// contain no '/', so the join is unambiguous.
func entryKey(tenant, name string) string { return tenant + "/" + name }

// modelEntry is one resident model. All fields except lastUsed are
// immutable after install; entries are shared between snapshot
// generations, so a recency bump is visible regardless of which
// generation the reader loaded.
type modelEntry struct {
	tenant   string
	name     string
	version  string // content address of the installed payload
	model    *core.Model
	compiled *CompiledModel // nil when the model has no compiled form
	lastUsed atomic.Int64
}

// NewRegistry creates a registry over the given artefact store (nil =
// a fresh in-process store.Memory) keeping at most cap models resident
// (cap <= 0 means 8).
func NewRegistry(st store.Store, cap int) *Registry {
	if st == nil {
		st = store.NewMemory()
	}
	if cap <= 0 {
		cap = 8
	}
	r := &Registry{st: st, cap: cap}
	r.snap.Store(&snapshot{entries: map[string]*modelEntry{}})
	return r
}

// Store exposes the backing artefact store.
func (r *Registry) Store() store.Store { return r.st }

// Close empties the resident set. (The registry has no background
// goroutines; queries racing Close finish against the snapshot they
// already loaded. The artefact store outlives residency.)
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap.Store(&snapshot{entries: map[string]*modelEntry{}})
}

// validRef vets the tenant and name of a model reference.
func validRef(tenant, name string) error {
	if err := store.ValidateKey(tenant); err != nil {
		return fmt.Errorf("server: tenant: %w", err)
	}
	if err := store.ValidateKey(name); err != nil {
		return fmt.Errorf("server: model name: %w", err)
	}
	return nil
}

// get returns an entry for (tenant, name, version), loading from the
// store (and possibly evicting) as needed. The resident fast path is a
// single atomic load plus a recency bump — no lock. version "" means
// latest; a version pin that matches the resident entry is served from
// residency, any other pin is loaded from the store for this call only
// (served interpreted, never cached — pinned reads of historical
// versions must not evict the hot latest set).
func (r *Registry) get(tenant, name, version string) (*modelEntry, error) {
	if err := validRef(tenant, name); err != nil {
		return nil, err
	}
	if e, ok := r.snap.Load().entries[entryKey(tenant, name)]; ok {
		if version == "" || version == e.version {
			e.lastUsed.Store(r.clock.Add(1))
			return e, nil
		}
	}

	// Load outside the writer lock: store reads must not stall installs
	// of other models.
	data, info, err := r.st.Get(store.Key{Tenant: tenant, Kind: store.KindModel, Name: name, Version: version})
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, fmt.Errorf("%w: %s/%s", ErrUnknownModel, tenant, name)
		}
		return nil, fmt.Errorf("server: loading model %s/%s: %w", tenant, name, err)
	}
	m, err := core.DecodeModel(data)
	if err != nil {
		return nil, fmt.Errorf("server: %w: model %s/%s@%s: %v",
			store.ErrCorrupt, tenant, name, info.Version, err)
	}
	if version != "" {
		// Historical pin: answer interpreted, skip residency.
		return &modelEntry{tenant: tenant, name: name, version: info.Version, model: m}, nil
	}
	return r.install(tenant, name, info.Version, m), nil
}

// Install persists the model's canonical payload to the artefact store
// under (tenant, name) and makes it resident, replacing any previous
// model of that name (in-flight queries finish against the entry they
// already hold; the swap never waits for them). It returns the
// content-addressed version the store assigned.
func (r *Registry) Install(tenant, name string, m *core.Model) (string, error) {
	if err := validRef(tenant, name); err != nil {
		return "", err
	}
	data, err := core.EncodeModel(m)
	if err != nil {
		return "", fmt.Errorf("server: encoding model %s/%s: %w", tenant, name, err)
	}
	info, err := r.st.Put(tenant, store.KindModel, name, data)
	if err != nil {
		return "", fmt.Errorf("server: persisting model %s/%s: %w", tenant, name, err)
	}
	r.install(tenant, name, info.Version, m)
	return info.Version, nil
}

// install compiles the model, then publishes a new snapshot generation
// containing it, evicting the least recently used entries down to cap.
// Compilation runs before the writer lock so installs of large models
// do not serialise on each other's compile time.
func (r *Registry) install(tenant, name, version string, m *core.Model) *modelEntry {
	// A model the engine cannot compile (e.g. quadratic tables) serves on
	// the interpreted path; compiled == nil is a supported state.
	cm, _ := CompileModel(tenant, name, m)

	e := &modelEntry{tenant: tenant, name: name, version: version, model: m, compiled: cm}
	e.lastUsed.Store(r.clock.Add(1))

	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load().entries
	entries := make(map[string]*modelEntry, len(old)+1)
	for k, v := range old {
		entries[k] = v
	}
	entries[entryKey(tenant, name)] = e
	for len(entries) > r.cap {
		var victim *modelEntry
		for _, v := range entries {
			if v == e {
				continue // never evict the entry being installed
			}
			if victim == nil || v.lastUsed.Load() < victim.lastUsed.Load() {
				victim = v
			}
		}
		if victim == nil {
			break
		}
		delete(entries, entryKey(victim.tenant, victim.name))
	}
	r.snap.Store(&snapshot{entries: entries})
	return e
}

// Evict drops a model from residency (queries reload it from the
// store). It reports whether the model was resident. The stored
// artefact is untouched — use Delete to remove it from the catalog.
func (r *Registry) Evict(tenant, name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := entryKey(tenant, name)
	old := r.snap.Load().entries
	if _, ok := old[key]; !ok {
		return false
	}
	entries := make(map[string]*modelEntry, len(old)-1)
	for k, v := range old {
		if k != key {
			entries[k] = v
		}
	}
	r.snap.Store(&snapshot{entries: entries})
	return true
}

// Delete removes a model from residency and from the artefact store
// (every version of the name).
func (r *Registry) Delete(tenant, name string) error {
	if err := validRef(tenant, name); err != nil {
		return err
	}
	resident := r.Evict(tenant, name)
	err := r.st.Delete(store.Key{Tenant: tenant, Kind: store.KindModel, Name: name})
	if errors.Is(err, store.ErrNotFound) {
		if resident {
			return nil // memory-only entry: eviction was the deletion
		}
		return fmt.Errorf("%w: %s/%s", ErrUnknownModel, tenant, name)
	}
	return err
}

// Query answers one yield query. The hot path — resident model with a
// compiled form — runs lock-free against the snapshot with pooled
// scratch; anything the compiled engine cannot answer re-runs on the
// interpreted path for the bit-identical result or error.
func (r *Registry) Query(ctx context.Context, req api.QueryRequest) (*api.QueryResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := r.get(req.TenantOrDefault(), req.Model, req.Version)
	if err != nil {
		return nil, err
	}
	if cm := e.compiled; cm != nil {
		sc := getScratch()
		if s, ok := cm.solve(req, sc); ok {
			resp := cm.response(&s)
			putScratch(sc)
			r.compiled.Add(1)
			return resp, nil
		}
		putScratch(sc)
	}
	r.interpreted.Add(1)
	res := solveQuery(e.tenant, e.name, e.model, req)
	if res.Error != "" {
		return nil, errors.New(res.Error)
	}
	return res.Response, nil
}

// QueryRendered answers one query and, when the compiled engine
// produced the answer, renders it straight into sc.buf from the model's
// pre-rendered JSON fragments — the zero-allocation HTTP path. body is
// nil when the caller must encode resp itself (interpreted fallback).
// The returned body aliases sc.buf: write it out before releasing sc.
func (r *Registry) QueryRendered(ctx context.Context, req api.QueryRequest, sc *queryScratch) (body []byte, resp *api.QueryResponse, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	e, err := r.get(req.TenantOrDefault(), req.Model, req.Version)
	if err != nil {
		return nil, nil, err
	}
	if cm := e.compiled; cm != nil {
		if s, ok := cm.solve(req, sc); ok {
			r.compiled.Add(1)
			if b, ok := cm.appendJSON(sc.buf[:0], &s); ok {
				sc.buf = b
				return b, nil, nil
			}
			// A value JSON cannot represent (NaN/Inf): hand the struct to
			// the generic encoder for the stock error behaviour.
			return nil, cm.response(&s), nil
		}
	}
	r.interpreted.Add(1)
	res := solveQuery(e.tenant, e.name, e.model, req)
	if res.Error != "" {
		return nil, nil, errors.New(res.Error)
	}
	return nil, res.Response, nil
}

// QueryBatch answers a batch of queries, grouping them by (tenant,
// model) so each group's variation-table interpolations stage through
// table.Model1D.EvalBatch (segment-hint reuse across the whole group)
// and the remaining per-query arithmetic reuses one warm scratch.
// Results line up with reqs; per-query failures land in
// Results[i].Error, exactly as the per-query path would report them.
func (r *Registry) QueryBatch(ctx context.Context, reqs []api.QueryRequest) []api.QueryResult {
	out := make([]api.QueryResult, len(reqs))
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i] = api.QueryResult{Error: err.Error()}
		}
		return out
	}
	// Group request indexes by (tenant, model, version), preserving order
	// within each group.
	type groupRef struct{ tenant, model, version string }
	groups := make(map[groupRef][]int, 2)
	order := make([]groupRef, 0, 2)
	for i, q := range reqs {
		ref := groupRef{q.TenantOrDefault(), q.Model, q.Version}
		if _, ok := groups[ref]; !ok {
			order = append(order, ref)
		}
		groups[ref] = append(groups[ref], i)
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, ref := range order {
		idxs := groups[ref]
		e, err := r.get(ref.tenant, ref.model, ref.version)
		if err != nil {
			for _, i := range idxs {
				out[i] = api.QueryResult{Error: err.Error()}
			}
			continue
		}
		r.queryGroup(e, reqs, idxs, out, sc)
	}
	return out
}

// queryGroup answers one model's share of a batch. Spec bounds that
// parse and fall inside the variation tables' domains are evaluated in
// one EvalBatch per axis; each query then finishes through the compiled
// solveFrom. Everything else (parse errors, out-of-range bounds, models
// with no compiled form, infeasible spec pairs) re-runs the interpreted
// path for the bit-identical error.
func (r *Registry) queryGroup(e *modelEntry, reqs []api.QueryRequest, idxs []int, out []api.QueryResult, sc *queryScratch) {
	cm := e.compiled
	if cm == nil {
		for _, i := range idxs {
			r.interpreted.Add(1)
			out[i] = solveQuery(e.tenant, e.name, e.model, reqs[i])
		}
		return
	}
	sc.stage = sc.stage[:0]
	sc.sq = sc.sq[:0]
	sc.scales = sc.scales[:0]
	sc.bounds0 = sc.bounds0[:0]
	sc.bounds1 = sc.bounds1[:0]
	for _, i := range idxs {
		req := reqs[i]
		spec0, err0 := req.Specs[0].ToYield()
		spec1, err1 := req.Specs[1].ToYield()
		scale := req.GuardScale
		if scale == 0 {
			scale = 1
		}
		if err0 != nil || err1 != nil || scale <= 0 ||
			spec0.Bound < cm.delta0.lo || spec0.Bound > cm.delta0.hi ||
			spec1.Bound < cm.delta1.lo || spec1.Bound > cm.delta1.hi {
			r.interpreted.Add(1)
			out[i] = solveQuery(e.tenant, e.name, e.model, req)
			continue
		}
		sc.stage = append(sc.stage, i)
		sc.sq = append(sc.sq, solvedQuery{spec0: spec0, spec1: spec1})
		sc.scales = append(sc.scales, scale)
		sc.bounds0 = append(sc.bounds0, spec0.Bound)
		sc.bounds1 = append(sc.bounds1, spec1.Bound)
	}
	if len(sc.stage) == 0 {
		return
	}
	// The bounds were range-checked with Model1D.Eval's exact comparison,
	// so Error-mode extrapolation cannot fire and the batch cannot fail.
	sc.d0s, _ = cm.delta0Tbl.EvalBatch(sc.d0s[:0], sc.bounds0)
	sc.d1s, _ = cm.delta1Tbl.EvalBatch(sc.d1s[:0], sc.bounds1)
	for j, i := range sc.stage {
		s := &sc.sq[j]
		solved, ok := cm.solveFrom(s, sc.scales[j], sc.d0s[j], sc.d1s[j], sc)
		if !ok {
			r.interpreted.Add(1)
			out[i] = solveQuery(e.tenant, e.name, e.model, reqs[i])
			continue
		}
		r.compiled.Add(1)
		out[i] = api.QueryResult{Response: cm.response(&solved)}
	}
}

// QueryStats reports how many queries each engine has answered since
// start: the compiled hot path vs the interpreted reference path
// (errors, uncompiled models, edge cases).
func (r *Registry) QueryStats() (compiled, interpreted int64) {
	return r.compiled.Load(), r.interpreted.Load()
}

// wireTenant renders a tenant for a response: the default tenant stays
// off the wire so pre-tenancy responses are byte-identical.
func wireTenant(tenant string) string {
	if tenant == api.DefaultTenant {
		return ""
	}
	return tenant
}

// solveQuery runs the Table 3 arithmetic against a model. It is the
// interpreted reference path: CompiledModel.solve must agree with it
// bit for bit on success, and every compiled-path refusal re-runs here
// so errors come from one place.
func solveQuery(tenant, name string, m *core.Model, req api.QueryRequest) api.QueryResult {
	fail := func(err error) api.QueryResult { return api.QueryResult{Error: err.Error()} }
	spec0, err := req.Specs[0].ToYield()
	if err != nil {
		return fail(err)
	}
	spec1, err := req.Specs[1].ToYield()
	if err != nil {
		return fail(err)
	}
	scale := req.GuardScale
	if scale == 0 {
		scale = 1
	}
	d, err := m.DesignForScaled(spec0, spec1, scale)
	if err != nil {
		return fail(err)
	}
	resp := &api.QueryResponse{
		Model:      name,
		Tenant:     wireTenant(tenant),
		Targets:    d.Target,
		DeltaPct:   d.DeltaPct,
		FrontPerf:  d.FrontPerf,
		CurveParam: d.CurveParam,
		Params:     make([]api.Param, len(d.Params)),
	}
	for i, v := range d.Params {
		p := api.Param{Name: m.ParamNames[i], Value: v}
		if i < len(m.ParamUnits) {
			p.Unit = m.ParamUnits[i]
		}
		resp.Params[i] = p
	}
	// Model-only yield estimate at the selected front point: the
	// variation tables give Δ% at the design's nominal performance.
	var deltas [2]float64
	for k := 0; k < 2; k++ {
		dp, derr := m.VariationAt(k, d.FrontPerf[k])
		if derr != nil {
			// The front point can sit at the very edge of the k=1 axis;
			// fall back to the spec-bound interpolation already computed.
			dp = d.DeltaPct[k]
		}
		deltas[k] = dp
	}
	resp.PredictedYield, err = yield.PredictJoint(
		[]yield.Spec{spec0, spec1}, d.FrontPerf[:], deltas[:])
	if err != nil {
		return fail(err)
	}
	return api.QueryResult{Response: resp}
}

// List enumerates a tenant's models — resident ones plus everything in
// the artefact store — sorted by name.
func (r *Registry) List(tenant string) []api.ModelInfo {
	if store.ValidateKey(tenant) != nil {
		return nil
	}
	names := map[string]bool{}
	for _, e := range r.snap.Load().entries {
		if e.tenant == tenant {
			names[e.name] = true
		}
	}
	if infos, err := r.st.List(tenant, store.KindModel); err == nil {
		for _, in := range infos {
			if !names[in.Name] {
				names[in.Name] = false
			}
		}
	}
	out := make([]api.ModelInfo, 0, len(names))
	for name := range names {
		info, err := r.Info(tenant, name)
		if err != nil {
			continue
		}
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tenants enumerates every tenant visible to the registry: those with
// stored artefacts plus those with resident-only models, sorted.
func (r *Registry) Tenants() []string {
	seen := map[string]bool{}
	if ts, err := r.st.Tenants(); err == nil {
		for _, t := range ts {
			seen[t] = true
		}
	}
	for _, e := range r.snap.Load().entries {
		seen[e.tenant] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Info describes one model. A non-resident model is read from the
// store without installing it, so listing the registry never evicts
// models that live queries are using.
func (r *Registry) Info(tenant, name string) (*api.ModelInfo, error) {
	if err := validRef(tenant, name); err != nil {
		return nil, err
	}
	e, resident := r.snap.Load().entries[entryKey(tenant, name)]
	var m *core.Model
	var version string
	if resident {
		m, version = e.model, e.version
	} else {
		data, info, err := r.st.Get(store.Key{Tenant: tenant, Kind: store.KindModel, Name: name})
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return nil, fmt.Errorf("%w: %s/%s", ErrUnknownModel, tenant, name)
			}
			return nil, fmt.Errorf("server: loading model %s/%s: %w", tenant, name, err)
		}
		if m, err = core.DecodeModel(data); err != nil {
			return nil, fmt.Errorf("server: %w: model %s/%s@%s: %v",
				store.ErrCorrupt, tenant, name, info.Version, err)
		}
		version = info.Version
	}
	lo, hi := m.Domain()
	lo1, hi1 := m.Delta[1].Domain()
	return &api.ModelInfo{
		TenantRef:      api.TenantRef{Tenant: wireTenant(tenant), Model: name, Version: version},
		Name:           name,
		ObjectiveNames: m.ObjectiveNames,
		ParamNames:     m.ParamNames,
		Points:         len(m.Points),
		Domain:         [2]float64{lo, hi},
		Domain1:        [2]float64{lo1, hi1},
		Resident:       resident,
	}, nil
}

// Resident reports how many models are currently loaded.
func (r *Registry) Resident() int {
	return len(r.snap.Load().entries)
}
