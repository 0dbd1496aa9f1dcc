package store

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Memory is the in-process Store backend: artefacts live for the life
// of the process. It runs the same envelope encode/verify cycle as the
// Disk backend so both enforce identical semantics (and the
// conformance suite exercises corruption handling on both).
type Memory struct {
	mu      sync.RWMutex
	tenants map[string]map[Kind]map[string]*memName

	// leases is the lease table (lease_mem.go); it has its own lock,
	// acquired strictly before mu (PutIfLeased calls Put under it).
	leases memLeases
}

// memName is one (tenant, kind, name)'s version history.
type memName struct {
	latest   string
	versions map[string]memVersion
}

type memVersion struct {
	blob    []byte // full artefact envelope
	size    int64
	created time.Time
}

// NewMemory creates an empty in-process store.
func NewMemory() *Memory {
	return &Memory{tenants: map[string]map[Kind]map[string]*memName{}}
}

// Put implements Store.
func (s *Memory) Put(tenant string, kind Kind, name string, payload []byte) (Info, error) {
	key := Key{Tenant: tenant, Kind: kind, Name: name}
	if err := validKey(key); err != nil {
		return Info{}, err
	}
	key.Version = Version(payload)
	blob := encodeArtefact(kind, payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	kinds, ok := s.tenants[tenant]
	if !ok {
		kinds = map[Kind]map[string]*memName{}
		s.tenants[tenant] = kinds
	}
	names, ok := kinds[kind]
	if !ok {
		names = map[string]*memName{}
		kinds[kind] = names
	}
	n, ok := names[name]
	if !ok {
		n = &memName{versions: map[string]memVersion{}}
		names[name] = n
	}
	v, ok := n.versions[key.Version]
	if !ok {
		v = memVersion{blob: blob, size: int64(len(payload)), created: time.Now()}
		n.versions[key.Version] = v
	}
	n.latest = key.Version
	return Info{Key: key, Size: v.size, Created: v.created}, nil
}

// lookup resolves key to its stored version under the read lock.
func (s *Memory) lookup(key Key) (*memName, memVersion, Key, error) {
	if err := validKey(key); err != nil {
		return nil, memVersion{}, key, err
	}
	n, ok := s.tenants[key.Tenant][key.Kind][key.Name]
	if !ok {
		return nil, memVersion{}, key, fmt.Errorf("%w: %s/%s/%s", ErrNotFound, key.Tenant, key.Kind, key.Name)
	}
	if key.Version == "" {
		key.Version = n.latest
	}
	v, ok := n.versions[key.Version]
	if !ok {
		return nil, memVersion{}, key, fmt.Errorf("%w: %s/%s/%s@%s", ErrNotFound, key.Tenant, key.Kind, key.Name, key.Version)
	}
	return n, v, key, nil
}

// Get implements Store.
func (s *Memory) Get(key Key) ([]byte, Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, v, key, err := s.lookup(key)
	if err != nil {
		return nil, Info{}, err
	}
	payload, err := decodeArtefact(v.blob, key.Kind, key.Version)
	if err != nil {
		return nil, Info{}, err
	}
	out := append([]byte(nil), payload...)
	return out, Info{Key: key, Size: v.size, Created: v.created}, nil
}

// Stat implements Store.
func (s *Memory) Stat(key Key) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, v, key, err := s.lookup(key)
	if err != nil {
		return Info{}, err
	}
	return Info{Key: key, Size: v.size, Created: v.created}, nil
}

// List implements Store.
func (s *Memory) List(tenant string, kind Kind) ([]Info, error) {
	if err := validKey(Key{Tenant: tenant, Kind: kind, Name: "x"}); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := s.tenants[tenant][kind]
	out := make([]Info, 0, len(names))
	for name, n := range names {
		v, ok := n.versions[n.latest]
		if !ok {
			continue
		}
		out = append(out, Info{
			Key:     Key{Tenant: tenant, Kind: kind, Name: name, Version: n.latest},
			Size:    v.size,
			Created: v.created,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Tenants implements Store.
func (s *Memory) Tenants() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for t, kinds := range s.tenants {
		empty := true
		for _, names := range kinds {
			if len(names) > 0 {
				empty = false
				break
			}
		}
		if !empty {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (s *Memory) Delete(key Key) error {
	wantAll := key.Version == ""
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _, key, err := s.lookup(key)
	if err != nil {
		return err
	}
	names := s.tenants[key.Tenant][key.Kind]
	if wantAll || len(n.versions) == 1 {
		delete(names, key.Name)
		return nil
	}
	delete(n.versions, key.Version)
	if n.latest == key.Version {
		// Promote the newest remaining version.
		var newest string
		var newestT time.Time
		for v, mv := range n.versions {
			if newest == "" || mv.created.After(newestT) {
				newest, newestT = v, mv.created
			}
		}
		n.latest = newest
	}
	return nil
}
