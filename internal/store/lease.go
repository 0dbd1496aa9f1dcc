package store

import (
	"errors"
	"fmt"
	"time"
)

// Lease coordination. A lease is an exclusive, TTL-bounded claim on a
// (tenant, name) pair — the unit replicas sharing one store use to
// decide which of them owns a flow job. The protocol is the classic
// fencing-token design:
//
//   - AcquireLease succeeds only when no live lease exists for the
//     name; the returned Lease carries a fencing token that is strictly
//     greater than every token ever issued for that name.
//   - The holder heartbeats with RenewLease; a holder that stops
//     renewing (crash, partition) loses the name once the TTL passes,
//     and any peer may acquire it — with a higher token.
//   - ReleaseLease ends the claim immediately (a draining replica calls
//     it so a peer need not wait out the TTL).
//   - PutIfLeased is the fenced write: it refuses to write when the
//     lease has been lost, and it refuses — even during the hand-over
//     race — once a successor holding a higher token has begun writing
//     the same artefact. A zombie replica that kept running after its
//     lease expired therefore cannot clobber its successor's progress.
//
// Tokens are monotonic per (tenant, name) for the lifetime of the
// store root, never reused, and never regress while the root's files
// do: Disk keeps the highest token's file forever (lease_disk.go). The
// file is not fsynced, so a host crash can lose it; a killed process
// cannot.

// Lease is one held claim on (Tenant, Name). The zero value is not a
// valid lease.
type Lease struct {
	Tenant string
	Name   string
	// Owner identifies the holder (a replica ID); renewals and releases
	// verify it so one process cannot accidentally operate another's
	// lease.
	Owner string
	// Token is the fencing token: strictly monotonic per (Tenant, Name)
	// across the store's lifetime. A holder presenting a token lower
	// than the highest ever issued for the name has lost the lease.
	Token uint64
	// Expires is when the claim lapses unless renewed.
	Expires time.Time
}

// Valid reports whether the lease is structurally a lease (it says
// nothing about whether it is still held).
func (l Lease) Valid() bool {
	return l.Tenant != "" && l.Name != "" && l.Owner != "" && l.Token > 0
}

// Lease sentinel errors.
var (
	// ErrLeaseHeld reports an acquisition attempt against a live lease
	// held by someone (possibly the caller — re-entry goes through
	// RenewLease, not AcquireLease).
	ErrLeaseHeld = errors.New("store: lease held")
	// ErrLeaseLost reports an operation with a lease that is no longer
	// the name's live claim: it expired and a peer took over (higher
	// token exists), or it was released.
	ErrLeaseLost = errors.New("store: lease lost")
)

// minLeaseTTL floors the requested TTL: a sub-millisecond lease cannot
// survive the filesystem round trips that renew it.
const minLeaseTTL = 10 * time.Millisecond

// validLeaseArgs vets AcquireLease's arguments.
func validLeaseArgs(tenant, name, owner string, ttl time.Duration) error {
	if err := ValidateKey(tenant); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	if err := ValidateKey(name); err != nil {
		return fmt.Errorf("name: %w", err)
	}
	if err := ValidateKey(owner); err != nil {
		return fmt.Errorf("owner: %w", err)
	}
	if ttl <= 0 {
		return fmt.Errorf("%w: non-positive lease ttl %v", ErrInvalidKey, ttl)
	}
	return nil
}

// clampTTL applies the TTL floor.
func clampTTL(ttl time.Duration) time.Duration {
	if ttl < minLeaseTTL {
		return minLeaseTTL
	}
	return ttl
}
