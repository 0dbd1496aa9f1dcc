package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Disk leases. Layout under the store root:
//
//	root/leases/<tenant>/<name>/t-<%016x>          one file per issued token
//	root/t/<tenant>/<kind>/<name>/fence/t-<%016x>  fenced-write marks
//
// The token file's NAME is the fencing token (hex, fixed width, so the
// lexically largest entry is the numerically largest token); its
// content records the owner and expiry. Arbitration is O_EXCL: every
// acquirer computes max+1 and tries to create that exact file — the
// filesystem lets exactly one racer win, and the loser sees EEXIST.
// Renew and release rewrite the holder's own token file via atomic
// rename, so readers never observe a torn record. The highest token
// file is never deleted (lower ones are garbage-collected), so tokens
// stay monotonic across process crashes, releases and expirations for
// the lifetime of the store root. No file is fsynced, so a host crash
// may lose the newest token file and reissue its number.
//
// Crash safety: a holder that dies simply stops renewing and the claim
// lapses at its recorded expiry. A crash between the O_EXCL create and
// the content write leaves an empty token file; readers treat such a
// file as held until its mtime plus a grace period, so the claim still
// lapses and liveness is preserved (and no other process can ever
// claim that token number — safety is untouched).

// leaseRecord is the token file's JSON content.
type leaseRecord struct {
	Owner string `json:"owner"`
	// ExpiresNS is the expiry as UNIX nanoseconds (0 = released).
	ExpiresNS int64 `json:"expires_ns"`
}

// staleTokenGrace bounds how long an unreadable (torn/empty) token file
// blocks acquisition, measured from its mtime.
const staleTokenGrace = 5 * time.Second

const tokenPrefix = "t-"

func tokenFileName(token uint64) string {
	return fmt.Sprintf(tokenPrefix+"%016x", token)
}

func parseTokenFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, tokenPrefix) || len(name) != len(tokenPrefix)+16 {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(tokenPrefix):], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func (s *Disk) leaseDir(tenant, name string) string {
	return filepath.Join(s.root, "leases", tenant, name)
}

func (s *Disk) fenceDir(tenant string, kind Kind, name string) string {
	return filepath.Join(s.nameDir(tenant, kind, name), "fence")
}

// maxToken scans dir for the highest token file. A missing directory is
// token 0 (never issued).
func maxToken(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: listing leases: %w", err)
	}
	var max uint64
	for _, e := range ents {
		if n, ok := parseTokenFileName(e.Name()); ok && n > max {
			max = n
		}
	}
	return max, nil
}

// readTokenFile reads one token's record. An unreadable or torn record
// (crash mid-create) reports held=true until mtime+staleTokenGrace.
func readTokenFile(path string) (rec leaseRecord, expires time.Time, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, time.Time{}, err
	}
	if jerr := json.Unmarshal(b, &rec); jerr != nil || rec.Owner == "" {
		// Torn or empty: fall back to the file clock so the claim still
		// lapses.
		if st, serr := os.Stat(path); serr == nil {
			return leaseRecord{}, st.ModTime().Add(staleTokenGrace), nil
		}
		return rec, time.Time{}, nil
	}
	if rec.ExpiresNS == 0 {
		return rec, time.Time{}, nil // released
	}
	return rec, time.Unix(0, rec.ExpiresNS), nil
}

// writeTokenExclusive creates the token file with O_EXCL — the atomic
// arbitration point. os.ErrExist means another acquirer won the race.
func writeTokenExclusive(path string, rec leaseRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	b, _ := json.Marshal(rec)
	if _, werr := f.Write(b); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// AcquireLease implements Store.
func (s *Disk) AcquireLease(tenant, name, owner string, ttl time.Duration) (Lease, error) {
	if err := validLeaseArgs(tenant, name, owner, ttl); err != nil {
		return Lease{}, err
	}
	ttl = clampTTL(ttl)
	dir := s.leaseDir(tenant, name)
	max, err := maxToken(dir)
	if err != nil {
		return Lease{}, err
	}
	now := time.Now()
	if max > 0 {
		rec, expires, err := readTokenFile(filepath.Join(dir, tokenFileName(max)))
		switch {
		case err != nil && !errors.Is(err, fs.ErrNotExist):
			return Lease{}, fmt.Errorf("store: reading lease: %w", err)
		case err == nil && now.Before(expires):
			return Lease{}, fmt.Errorf("%w: %s/%s by %q until %s",
				ErrLeaseHeld, tenant, name, rec.Owner, expires.Format(time.RFC3339Nano))
		}
	}
	next := max + 1
	expires := now.Add(ttl)
	err = writeTokenExclusive(filepath.Join(dir, tokenFileName(next)),
		leaseRecord{Owner: owner, ExpiresNS: expires.UnixNano()})
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			// A concurrent acquirer created this exact token first; the
			// filesystem arbitrated, we lost.
			return Lease{}, fmt.Errorf("%w: %s/%s lost acquisition race", ErrLeaseHeld, tenant, name)
		}
		return Lease{}, fmt.Errorf("store: writing lease: %w", err)
	}
	// Garbage-collect dead history: every token below ours is settled.
	// The winning (highest) file is never removed, so the counter can
	// never regress.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if n, ok := parseTokenFileName(e.Name()); ok && n < next {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return Lease{Tenant: tenant, Name: name, Owner: owner, Token: next, Expires: expires}, nil
}

// checkLive verifies lease is still the name's live claim: its token is
// the highest issued and the owner matches.
func (s *Disk) checkLive(lease Lease) error {
	// Lease fields become path components below; vet them like any key.
	if err := validLeaseArgs(lease.Tenant, lease.Name, lease.Owner, time.Second); err != nil {
		return err
	}
	dir := s.leaseDir(lease.Tenant, lease.Name)
	max, err := maxToken(dir)
	if err != nil {
		return err
	}
	if max != lease.Token {
		return fmt.Errorf("%w: %s/%s token %d superseded by %d",
			ErrLeaseLost, lease.Tenant, lease.Name, lease.Token, max)
	}
	rec, _, err := readTokenFile(filepath.Join(dir, tokenFileName(lease.Token)))
	if err != nil {
		return fmt.Errorf("%w: %s/%s token %d unreadable",
			ErrLeaseLost, lease.Tenant, lease.Name, lease.Token)
	}
	if rec.Owner != lease.Owner {
		return fmt.Errorf("%w: %s/%s token %d owned by %q",
			ErrLeaseLost, lease.Tenant, lease.Name, lease.Token, rec.Owner)
	}
	return nil
}

// RenewLease implements Store.
func (s *Disk) RenewLease(lease Lease, ttl time.Duration) (Lease, error) {
	if !lease.Valid() {
		return Lease{}, fmt.Errorf("%w: not a lease", ErrInvalidKey)
	}
	ttl = clampTTL(ttl)
	if err := s.checkLive(lease); err != nil {
		return Lease{}, err
	}
	expires := time.Now().Add(ttl)
	b, _ := json.Marshal(leaseRecord{Owner: lease.Owner, ExpiresNS: expires.UnixNano()})
	path := filepath.Join(s.leaseDir(lease.Tenant, lease.Name), tokenFileName(lease.Token))
	if err := writeFileAtomic(path, b); err != nil {
		return Lease{}, fmt.Errorf("store: renewing lease: %w", err)
	}
	// Re-check after the rename: a contender that found us expired may
	// have issued a higher token while our rename was in flight. Better
	// to learn it now than at the next fenced write.
	if err := s.checkLive(lease); err != nil {
		return Lease{}, err
	}
	lease.Expires = expires
	return lease, nil
}

// ReleaseLease implements Store.
func (s *Disk) ReleaseLease(lease Lease) error {
	if !lease.Valid() {
		return fmt.Errorf("%w: not a lease", ErrInvalidKey)
	}
	if err := s.checkLive(lease); err != nil {
		return err
	}
	// Expire in place (ExpiresNS 0) rather than deleting: the file is
	// what keeps the token counter monotonic.
	b, _ := json.Marshal(leaseRecord{Owner: lease.Owner, ExpiresNS: 0})
	path := filepath.Join(s.leaseDir(lease.Tenant, lease.Name), tokenFileName(lease.Token))
	if err := writeFileAtomic(path, b); err != nil {
		return fmt.Errorf("store: releasing lease: %w", err)
	}
	return nil
}

// PutIfLeased implements Store. The fence marks under the artefact's
// own directory are the storage-side half of the protocol: a writer
// marks its token before the payload write, any writer observing a
// higher mark refuses, and a post-write convergence pass repairs the
// LATEST pointer if a lower-token write overlapped a higher one's.
func (s *Disk) PutIfLeased(lease Lease, kind Kind, name string, payload []byte) (Info, error) {
	if !lease.Valid() {
		return Info{}, fmt.Errorf("%w: not a lease", ErrInvalidKey)
	}
	if err := validKey(Key{Tenant: lease.Tenant, Kind: kind, Name: name}); err != nil {
		return Info{}, err
	}
	if err := s.checkLive(lease); err != nil {
		return Info{}, err
	}
	if time.Now().After(lease.Expires) {
		return Info{}, fmt.Errorf("%w: %s/%s token %d expired",
			ErrLeaseLost, lease.Tenant, lease.Name, lease.Token)
	}
	fdir := s.fenceDir(lease.Tenant, kind, name)
	highest, err := maxToken(fdir)
	if err != nil {
		return Info{}, err
	}
	if highest > lease.Token {
		return Info{}, fmt.Errorf("%w: %s/%s/%s fenced at token %d > %d",
			ErrLeaseLost, lease.Tenant, kind, name, highest, lease.Token)
	}
	// Mark the fence BEFORE writing, recording the version this token is
	// about to install, so a concurrent lower-token writer sees the mark
	// and any repair pass knows which version should win.
	version := Version(payload)
	if err := writeFileAtomic(filepath.Join(fdir, tokenFileName(lease.Token)), []byte(version)); err != nil {
		return Info{}, fmt.Errorf("store: writing fence mark: %w", err)
	}
	info, err := s.Put(lease.Tenant, kind, name, payload)
	if err != nil {
		return Info{}, err
	}
	// Convergence pass: if a higher token marked the fence while our
	// write was in flight, our LATEST rename may have landed after (and
	// clobbered) the successor's. Re-point LATEST at the highest-token
	// version whose content has landed, then report the loss.
	after, err := maxToken(fdir)
	if err == nil && after > lease.Token {
		if vb, rerr := os.ReadFile(filepath.Join(fdir, tokenFileName(after))); rerr == nil {
			v := strings.TrimSpace(string(vb))
			nd := s.nameDir(lease.Tenant, kind, name)
			if validVersion(v) == nil {
				if _, serr := os.Stat(filepath.Join(nd, "refs", v)); serr == nil {
					writeFileAtomic(filepath.Join(nd, latestFile), []byte(v)) //nolint:errcheck // best-effort repair
				}
			}
		}
		return info, fmt.Errorf("%w: %s/%s/%s fenced at token %d > %d during write",
			ErrLeaseLost, lease.Tenant, kind, name, after, lease.Token)
	}
	// Old fence marks below the highest are history; collect them.
	if ents, rerr := os.ReadDir(fdir); rerr == nil {
		for _, e := range ents {
			if n, ok := parseTokenFileName(e.Name()); ok && n < lease.Token {
				os.Remove(filepath.Join(fdir, e.Name()))
			}
		}
	}
	return info, nil
}
