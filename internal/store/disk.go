package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Disk is the durable Store backend: a content-addressed blob area plus
// tiny per-name ref files, safe for concurrent use by multiple
// processes sharing one root.
//
//	root/
//	  blobs/<vv>/<version>                 immutable artefact envelopes
//	  t/<tenant>/<kind>/<name>/refs/<version>   one file per version (content: payload size)
//	  t/<tenant>/<kind>/<name>/LATEST           current version string
//
// Blobs are written once via temp-file + rename and never modified:
// two replicas racing to Put identical content converge on the same
// blob path, and a Put of new content only becomes visible when the
// LATEST rename lands — readers see the old or the new version, never
// a torn one. Deleting refs leaves blobs in place (they may be shared
// across names and tenants); a missing blob behind a live ref is
// reported as corruption, never a panic.
type Disk struct {
	root string
}

// OpenDisk opens (lazily creating) a disk store rooted at root. The
// root is created on first write, so opening a store for read-only use
// of an empty directory performs no I/O.
func OpenDisk(root string) *Disk { return &Disk{root: root} }

// Root reports the store's root directory.
func (s *Disk) Root() string { return s.root }

const latestFile = "LATEST"

func (s *Disk) blobPath(version string) string {
	return filepath.Join(s.root, "blobs", version[:2], version)
}

func (s *Disk) nameDir(tenant string, kind Kind, name string) string {
	return filepath.Join(s.root, "t", tenant, string(kind), name)
}

// writeFileAtomic writes data to path via a temp file + rename, so a
// crash or a racing reader never observes a partial file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Put implements Store.
func (s *Disk) Put(tenant string, kind Kind, name string, payload []byte) (Info, error) {
	key := Key{Tenant: tenant, Kind: kind, Name: name}
	if err := validKey(key); err != nil {
		return Info{}, err
	}
	key.Version = Version(payload)

	// 1. Blob: skip the write when the content already exists (identical
	// content from any tenant/name lands on the same blob).
	bp := s.blobPath(key.Version)
	if _, err := os.Stat(bp); err != nil {
		if err := writeFileAtomic(bp, encodeArtefact(kind, payload)); err != nil {
			return Info{}, fmt.Errorf("store: writing blob: %w", err)
		}
	}
	// 2. Ref: records the version under the name; content is the payload
	// size so Stat/List never open the blob.
	nd := s.nameDir(tenant, kind, name)
	ref := filepath.Join(nd, "refs", key.Version)
	if err := writeFileAtomic(ref, []byte(strconv.Itoa(len(payload)))); err != nil {
		return Info{}, fmt.Errorf("store: writing ref: %w", err)
	}
	// 3. Latest pointer: the atomic rename is the moment the new version
	// becomes the name's answer.
	if err := writeFileAtomic(filepath.Join(nd, latestFile), []byte(key.Version)); err != nil {
		return Info{}, fmt.Errorf("store: writing latest: %w", err)
	}
	created := time.Now()
	if st, err := os.Stat(ref); err == nil {
		created = st.ModTime()
	}
	return Info{Key: key, Size: int64(len(payload)), Created: created}, nil
}

// resolve fills in key.Version (via LATEST when empty) and returns the
// ref metadata.
func (s *Disk) resolve(key Key) (Key, Info, error) {
	if err := validKey(key); err != nil {
		return key, Info{}, err
	}
	nd := s.nameDir(key.Tenant, key.Kind, key.Name)
	if key.Version == "" {
		b, err := os.ReadFile(filepath.Join(nd, latestFile))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return key, Info{}, fmt.Errorf("%w: %s/%s/%s", ErrNotFound, key.Tenant, key.Kind, key.Name)
			}
			return key, Info{}, fmt.Errorf("store: reading latest: %w", err)
		}
		v := strings.TrimSpace(string(b))
		if err := validVersion(v); err != nil {
			return key, Info{}, fmt.Errorf("%w: latest pointer of %s/%s/%s is %q",
				ErrCorrupt, key.Tenant, key.Kind, key.Name, v)
		}
		key.Version = v
	}
	ref := filepath.Join(nd, "refs", key.Version)
	st, err := os.Stat(ref)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return key, Info{}, fmt.Errorf("%w: %s/%s/%s@%s", ErrNotFound, key.Tenant, key.Kind, key.Name, key.Version)
		}
		return key, Info{}, fmt.Errorf("store: reading ref: %w", err)
	}
	info := Info{Key: key, Created: st.ModTime()}
	if b, err := os.ReadFile(ref); err == nil {
		if n, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); perr == nil {
			info.Size = n
		}
	}
	return key, info, nil
}

// Get implements Store.
func (s *Disk) Get(key Key) ([]byte, Info, error) {
	key, info, err := s.resolve(key)
	if err != nil {
		return nil, Info{}, err
	}
	blob, err := os.ReadFile(s.blobPath(key.Version))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The ref promises a version whose content is gone: that is a
			// damaged store, not an absent artefact.
			return nil, Info{}, fmt.Errorf("%w: blob %s missing for %s/%s/%s",
				ErrCorrupt, key.Version, key.Tenant, key.Kind, key.Name)
		}
		return nil, Info{}, fmt.Errorf("store: reading blob: %w", err)
	}
	payload, err := decodeArtefact(blob, key.Kind, key.Version)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%s/%s/%s@%s: %w", key.Tenant, key.Kind, key.Name, key.Version, err)
	}
	return payload, info, nil
}

// Stat implements Store.
func (s *Disk) Stat(key Key) (Info, error) {
	_, info, err := s.resolve(key)
	return info, err
}

// List implements Store.
func (s *Disk) List(tenant string, kind Kind) ([]Info, error) {
	if err := validKey(Key{Tenant: tenant, Kind: kind, Name: "x"}); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.root, "t", tenant, string(kind))
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: listing %s/%s: %w", tenant, kind, err)
	}
	var out []Info
	for _, e := range ents {
		if !e.IsDir() || ValidateKey(e.Name()) != nil {
			continue
		}
		_, info, err := s.resolve(Key{Tenant: tenant, Kind: kind, Name: e.Name()})
		if err != nil {
			// A half-deleted or damaged name must not hide the healthy
			// rest of the catalog; Get reports its precise failure.
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Tenants implements Store.
func (s *Disk) Tenants() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "t"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: listing tenants: %w", err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() && ValidateKey(e.Name()) == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store. Blobs stay behind (content may be shared);
// only the name's refs go away.
func (s *Disk) Delete(key Key) error {
	wantAll := key.Version == ""
	key, _, err := s.resolve(key)
	if err != nil {
		return err
	}
	nd := s.nameDir(key.Tenant, key.Kind, key.Name)
	if wantAll {
		return os.RemoveAll(nd)
	}
	if err := os.Remove(filepath.Join(nd, "refs", key.Version)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: deleting ref: %w", err)
	}
	// If the deleted version was latest, promote the newest remaining
	// ref, or drop the name entirely when none remain.
	lb, err := os.ReadFile(filepath.Join(nd, latestFile))
	if err != nil || strings.TrimSpace(string(lb)) != key.Version {
		return nil
	}
	refs, err := os.ReadDir(filepath.Join(nd, "refs"))
	if err != nil || len(refs) == 0 {
		return os.RemoveAll(nd)
	}
	newest, newestT := "", time.Time{}
	for _, r := range refs {
		st, err := r.Info()
		if err != nil {
			continue
		}
		if newest == "" || st.ModTime().After(newestT) {
			newest, newestT = r.Name(), st.ModTime()
		}
	}
	if newest == "" {
		return os.RemoveAll(nd)
	}
	return writeFileAtomic(filepath.Join(nd, latestFile), []byte(newest))
}
