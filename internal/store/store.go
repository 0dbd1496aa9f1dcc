// Package store is the durable, multi-tenant artefact layer behind the
// ayd service: behavioural models and flow-job checkpoints serialized
// into a versioned, self-describing artefact format and addressed by
// (tenant, kind, name, version).
//
// Versions are content addresses — the sha256 of the canonical payload
// serialization — so identical artefacts deduplicate, a version pin can
// never silently change meaning, and every read re-verifies the payload
// against its address. Disk, the one implementation of Store, keeps one
// immutable blob file per version plus tiny per-name ref files updated
// by atomic rename, so N stateless server replicas can share one store
// directory: writes never tear, and readers always see either the old
// or the new latest version of a name.
//
// Nothing is fsynced: every write is a temp file plus rename (or an
// O_EXCL create), which survives a killed process but not a crash of
// the host before the kernel flushes its page cache.
package store

import (
	"errors"
	"fmt"
	"time"
)

// DefaultTenant is the namespace behind the pre-tenancy /v1 API routes;
// artefacts installed without an explicit tenant land here.
const DefaultTenant = "default"

// Kind partitions a tenant's namespace by artefact type.
type Kind string

const (
	// KindModel holds canonical model payloads (core.EncodeModel).
	KindModel Kind = "models"
	// KindCheckpoint holds flow-job resume state (the gob checkpoint
	// stream written by core.RunFlow), persisted so any replica can
	// resume any job after a crash.
	KindCheckpoint Kind = "checkpoints"
	// KindJob holds pending flow-job records (the serialized submission
	// request): a replica writes one at submission and deletes it when
	// the job reaches a terminal state, so a surviving peer can discover
	// and adopt jobs whose owner crashed or drained.
	KindJob Kind = "jobs"
)

// Key identifies one stored artefact. An empty Version addresses the
// latest version of the name.
type Key struct {
	Tenant  string
	Kind    Kind
	Name    string
	Version string
}

// Info describes a stored artefact.
type Info struct {
	Key
	// Size is the payload size in bytes (excluding the artefact header).
	Size int64
	// Created is when this version was written to this store.
	Created time.Time
}

// Store is the persistence interface the server's registry and job
// manager sit on; Disk implements it, and callers may wrap it (to count
// or fault calls). Implementations must be safe for concurrent use,
// including use of one root by several processes.
type Store interface {
	// Put writes payload as a new version of (tenant, kind, name) and
	// makes it the latest. The returned Info carries the content-derived
	// version. Writing a payload that already exists under the same key
	// is idempotent.
	Put(tenant string, kind Kind, name string, payload []byte) (Info, error)

	// Get returns the payload and metadata for key; Key.Version == ""
	// resolves the latest version. A missing artefact reports
	// ErrNotFound; a damaged one reports an error wrapping ErrCorrupt.
	Get(key Key) ([]byte, Info, error)

	// Stat describes an artefact without reading its payload.
	Stat(key Key) (Info, error)

	// List enumerates the latest version of every name under
	// (tenant, kind), sorted by name. An unknown tenant lists empty.
	List(tenant string, kind Kind) ([]Info, error)

	// Tenants enumerates every tenant with at least one artefact,
	// sorted.
	Tenants() ([]string, error)

	// Delete removes an artefact. With Key.Version == "" every version
	// of the name is removed. Deleting a missing artefact reports
	// ErrNotFound.
	Delete(key Key) error

	// AcquireLease claims exclusive, TTL-bounded ownership of
	// (tenant, name) for owner. It fails with ErrLeaseHeld while a live
	// lease exists (held by anyone — re-entry goes through RenewLease).
	// The returned lease's fencing token is strictly greater than every
	// token previously issued for the name. See lease.go for the
	// protocol.
	AcquireLease(tenant, name, owner string, ttl time.Duration) (Lease, error)

	// RenewLease extends a held lease by ttl from now, returning the
	// updated lease. It fails with ErrLeaseLost once a higher token has
	// been issued for the name (a peer took over) or the owner does not
	// match.
	RenewLease(l Lease, ttl time.Duration) (Lease, error)

	// ReleaseLease ends a held claim immediately, making the name
	// acquirable without waiting out the TTL. Releasing a lease that was
	// already lost reports ErrLeaseLost (harmless — the claim is gone
	// either way).
	ReleaseLease(l Lease) error

	// PutIfLeased writes payload under (l.Tenant, kind, name) like Put,
	// but fenced by l: the write is refused with ErrLeaseLost when the
	// lease is no longer the live claim on (l.Tenant, l.Name), or when a
	// successor holding a higher fencing token has already begun writing
	// this artefact — so a zombie holder cannot regress its successor's
	// progress.
	PutIfLeased(l Lease, kind Kind, name string, payload []byte) (Info, error)
}

// Sentinel errors. Corruption sub-errors (bad magic, truncation,
// fingerprint mismatch) all wrap ErrCorrupt, so callers match the whole
// family with errors.Is(err, ErrCorrupt).
var (
	ErrNotFound   = errors.New("store: artefact not found")
	ErrInvalidKey = errors.New("store: invalid key")

	ErrCorrupt     = errors.New("store: corrupt artefact")
	ErrBadMagic    = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrBadVersion  = fmt.Errorf("%w: unsupported format version", ErrCorrupt)
	ErrTruncated   = fmt.Errorf("%w: truncated", ErrCorrupt)
	ErrFingerprint = fmt.Errorf("%w: fingerprint mismatch", ErrCorrupt)
)

// maxKeyLen bounds tenant and name segments: long enough for
// descriptive catalog names, short enough that every filesystem and
// URL path accepts them.
const maxKeyLen = 100

// ValidateKey vets one key segment (a tenant or a name) for use as a
// path component and URL element: non-empty, at most 100 bytes, ASCII
// letters/digits/dot/dash/underscore only, no separators, and no
// leading dot (which also rejects "." and ".." — nothing a segment can
// contain escapes the store root or hides files).
func ValidateKey(segment string) error {
	if segment == "" {
		return fmt.Errorf("%w: empty segment", ErrInvalidKey)
	}
	if len(segment) > maxKeyLen {
		return fmt.Errorf("%w: segment longer than %d bytes", ErrInvalidKey, maxKeyLen)
	}
	if segment[0] == '.' {
		return fmt.Errorf("%w: segment %q starts with a dot", ErrInvalidKey, segment)
	}
	for i := 0; i < len(segment); i++ {
		c := segment[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("%w: segment %q contains %q", ErrInvalidKey, segment, c)
		}
	}
	return nil
}

// validKey vets a full lookup key (version optional).
func validKey(key Key) error {
	if err := ValidateKey(key.Tenant); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	if err := ValidateKey(key.Name); err != nil {
		return fmt.Errorf("name: %w", err)
	}
	switch key.Kind {
	case KindModel, KindCheckpoint, KindJob:
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalidKey, key.Kind)
	}
	if key.Version != "" {
		if err := validVersion(key.Version); err != nil {
			return err
		}
	}
	return nil
}

// validVersion vets a version string: lowercase-hex sha256.
func validVersion(v string) error {
	if len(v) != 64 {
		return fmt.Errorf("%w: version %q is not a sha256 hex digest", ErrInvalidKey, v)
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w: version %q is not a sha256 hex digest", ErrInvalidKey, v)
		}
	}
	return nil
}
