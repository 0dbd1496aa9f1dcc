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
)

// ErrUnknownModel reports a query against a (tenant, name) that is
// neither resident nor present in the artefact store.
var ErrUnknownModel = errors.New("server: unknown model")

// Registry is the read-mostly model cache over the durable artefact
// store (store.Store) behind the query path. Models are addressed by
// (tenant, name, version): installs persist the canonical payload to
// the store and make the model resident; cache misses load lazily from
// the store (so a restarted replica warm-starts from whatever the
// store holds, preparing each model on its first query); at most cap
// models stay resident, the least recently queried evicted first.
//
// The resident set is published as an immutable snapshot behind an
// atomic.Pointer: queries load the snapshot and answer without taking
// any lock, writers (install, evict, close) serialise on a mutex and
// swap in a copied map. Every entry is prepared (CompileModel) before it
// is stored or made resident, and core's Table 3 engine answers every
// query on it; recency for LRU eviction is a per-entry atomic counter
// fed by a global clock, so reads stay lock-free.
type Registry struct {
	st  store.Store
	cap int

	mu      sync.Mutex // serialises snapshot writers
	snap    atomic.Pointer[snapshot]
	clock   atomic.Int64 // LRU recency source
	queries atomic.Int64 // queries that reached a model (QueryStats)
}

// snapshot is one immutable published generation of the resident set,
// keyed by tenant-qualified name.
type snapshot struct {
	entries map[string]*modelEntry
}

// entryKey qualifies a model name by its tenant. Validated segments
// contain no '/', so the join is unambiguous.
func entryKey(tenant, name string) string { return tenant + "/" + name }

// modelEntry is one prepared model version: resident, or loaded for
// one pinned call. All fields except lastUsed are immutable; resident
// entries are shared between snapshot generations, so a recency bump is
// visible regardless of which generation the reader loaded.
type modelEntry struct {
	cm       *CompiledModel
	version  string // content address of the installed payload
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
// residency, any other pin is loaded and prepared for this call only
// (never cached — pinned reads of historical versions must not evict the
// hot latest set).
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

	// Load and prepare outside the writer lock: store reads must not
	// stall installs of other models.
	m, stored, err := r.load(tenant, name, version)
	if err != nil {
		return nil, err
	}
	cm, err := CompileModel(tenant, name, m)
	if err != nil {
		return nil, fmt.Errorf("server: %w: model %s/%s@%s: %v",
			store.ErrCorrupt, tenant, name, stored, err)
	}
	e := &modelEntry{cm: cm, version: stored}
	if version == "" {
		r.publish(e)
	}
	return e, nil
}

// load reads one stored model version ("" = latest) and decodes it,
// returning the version the store resolved.
func (r *Registry) load(tenant, name, version string) (*core.Model, string, error) {
	data, info, err := r.st.Get(store.Key{Tenant: tenant, Kind: store.KindModel, Name: name, Version: version})
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, "", fmt.Errorf("%w: %s/%s", ErrUnknownModel, tenant, name)
		}
		return nil, "", fmt.Errorf("server: loading model %s/%s: %w", tenant, name, err)
	}
	m, err := core.DecodeModel(data)
	if err != nil {
		return nil, "", fmt.Errorf("server: %w: model %s/%s@%s: %v",
			store.ErrCorrupt, tenant, name, info.Version, err)
	}
	return m, info.Version, nil
}

// Install prepares the model, persists its canonical payload to the
// artefact store under (tenant, name) and makes it resident, replacing
// any previous model of that name (in-flight queries finish against the
// entry they already hold; the swap never waits for them). It returns
// the content-addressed version the store assigned.
func (r *Registry) Install(tenant, name string, m *core.Model) (string, error) {
	if err := validRef(tenant, name); err != nil {
		return "", err
	}
	cm, err := CompileModel(tenant, name, m)
	if err != nil {
		return "", fmt.Errorf("server: preparing model %s/%s: %w", tenant, name, err)
	}
	data, err := core.EncodeModel(m)
	if err != nil {
		return "", fmt.Errorf("server: encoding model %s/%s: %w", tenant, name, err)
	}
	info, err := r.st.Put(tenant, store.KindModel, name, data)
	if err != nil {
		return "", fmt.Errorf("server: persisting model %s/%s: %w", tenant, name, err)
	}
	r.publish(&modelEntry{cm: cm, version: info.Version})
	return info.Version, nil
}

// publish makes a prepared entry resident: a new snapshot generation
// containing it, with the least recently used entries evicted down to
// cap. Callers prepare the entry before calling, so installs of large
// models do not serialise on each other's preparation.
func (r *Registry) publish(e *modelEntry) {
	e.lastUsed.Store(r.clock.Add(1))

	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load().entries
	entries := make(map[string]*modelEntry, len(old)+1)
	for k, v := range old {
		entries[k] = v
	}
	entries[entryKey(e.cm.tenant, e.cm.name)] = e
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
		delete(entries, entryKey(victim.cm.tenant, victim.cm.name))
	}
	r.snap.Store(&snapshot{entries: entries})
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

// Query answers one yield query on core's engine, lock-free
// against the snapshot with pooled scratch.
func (r *Registry) Query(ctx context.Context, req api.QueryRequest) (*api.QueryResponse, error) {
	sc := getScratch()
	defer putScratch(sc)
	cm, d, err := r.solve(ctx, req, sc)
	if err != nil {
		return nil, err
	}
	return cm.response(d), nil
}

// QueryRendered answers one query and renders it straight into sc.buf
// from the model's pre-rendered JSON fragments — the zero-allocation
// HTTP path. The returned body aliases sc.buf: write it out before
// releasing sc.
func (r *Registry) QueryRendered(ctx context.Context, req api.QueryRequest, sc *queryScratch) ([]byte, error) {
	cm, d, err := r.solve(ctx, req, sc)
	if err != nil {
		return nil, err
	}
	b, ok := cm.appendJSON(sc.buf[:0], d)
	sc.buf = b
	if !ok {
		return nil, fmt.Errorf("%w (model %s/%s)", errUnrepresentable, cm.tenant, cm.name)
	}
	return b, nil
}

// solve resolves the query's model and answers the query on it.
func (r *Registry) solve(ctx context.Context, req api.QueryRequest, sc *queryScratch) (*CompiledModel, *core.Design, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	e, err := r.get(req.TenantOrDefault(), req.Model, req.Version)
	if err != nil {
		return nil, nil, err
	}
	r.queries.Add(1)
	d, err := e.cm.solve(req, sc)
	return e.cm, d, err
}

// QueryBatch answers a batch of queries. Each (tenant, model, version)
// is resolved once per batch, and every query runs through one warm
// scratch, so segment hints carry from query to query. Results line up
// with reqs; per-query failures land in Results[i].Error, exactly as the
// per-query path would report them.
func (r *Registry) QueryBatch(ctx context.Context, reqs []api.QueryRequest) []api.QueryResult {
	out := make([]api.QueryResult, len(reqs))
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i] = api.QueryResult{Error: err.Error()}
		}
		return out
	}
	type ref struct{ tenant, model, version string }
	type resolved struct {
		e   *modelEntry
		err error
	}
	models := make(map[ref]resolved, 2)
	sc := getScratch()
	defer putScratch(sc)
	for i, q := range reqs {
		k := ref{q.TenantOrDefault(), q.Model, q.Version}
		m, ok := models[k]
		if !ok {
			m.e, m.err = r.get(k.tenant, k.model, k.version)
			models[k] = m
		}
		if m.err != nil {
			out[i] = api.QueryResult{Error: m.err.Error()}
			continue
		}
		r.queries.Add(1)
		d, err := m.e.cm.solve(q, sc)
		if err != nil {
			out[i] = api.QueryResult{Error: err.Error()}
			continue
		}
		out[i] = api.QueryResult{Response: m.e.cm.response(d)}
	}
	return out
}

// QueryStats reports how many queries have reached a model since start.
// One engine answers every one of them, so interpreted is always 0; the
// pair survives for callers that report a ratio.
func (r *Registry) QueryStats() (compiled, interpreted int64) {
	return r.queries.Load(), 0
}

// wireTenant renders a tenant for a response: the default tenant stays
// off the wire so pre-tenancy responses are byte-identical.
func wireTenant(tenant string) string {
	if tenant == api.DefaultTenant {
		return ""
	}
	return tenant
}

// List enumerates a tenant's models — resident ones plus everything in
// the artefact store — sorted by name.
func (r *Registry) List(tenant string) []api.ModelInfo {
	if store.ValidateKey(tenant) != nil {
		return nil
	}
	names := map[string]bool{}
	for _, e := range r.snap.Load().entries {
		if e.cm.tenant == tenant {
			names[e.cm.name] = true
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
		seen[e.cm.tenant] = true
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
		m, version = e.cm.model, e.version
	} else {
		var err error
		if m, version, err = r.load(tenant, name, ""); err != nil {
			return nil, err
		}
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
