package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// onDisk runs a conformance subtest, named "disk", against a fresh
// Disk store.
func onDisk(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("disk", func(t *testing.T) { fn(t, OpenDisk(t.TempDir())) })
}

func TestPutGetRoundTrip(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		payload := []byte("hello artefact")
		info, err := s.Put("acme", KindModel, "ota", payload)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != Version(payload) {
			t.Errorf("Version = %s, want content address %s", info.Version, Version(payload))
		}
		if info.Size != int64(len(payload)) {
			t.Errorf("Size = %d, want %d", info.Size, len(payload))
		}

		// Latest fetch.
		got, gi, err := s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) || gi.Version != info.Version {
			t.Errorf("Get latest = %q @%s", got, gi.Version)
		}
		// Version-pinned fetch.
		got, _, err = s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota", Version: info.Version})
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("Get pinned: %q, %v", got, err)
		}
		// Stat without payload.
		si, err := s.Stat(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
		if err != nil || si.Version != info.Version || si.Size != info.Size {
			t.Errorf("Stat = %+v, %v", si, err)
		}
	})
}

func TestVersionHistoryAndLatest(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		v1, err := s.Put("acme", KindModel, "ota", []byte("one"))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.Put("acme", KindModel, "ota", []byte("two"))
		if err != nil {
			t.Fatal(err)
		}
		if v1.Version == v2.Version {
			t.Fatal("distinct payloads share a version")
		}
		// Latest moved to v2; v1 stays addressable.
		got, _, err := s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
		if err != nil || string(got) != "two" {
			t.Fatalf("latest = %q, %v", got, err)
		}
		got, _, err = s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota", Version: v1.Version})
		if err != nil || string(got) != "one" {
			t.Fatalf("pinned v1 = %q, %v", got, err)
		}
		// Re-putting v1's content is idempotent and moves latest back.
		v1b, err := s.Put("acme", KindModel, "ota", []byte("one"))
		if err != nil || v1b.Version != v1.Version {
			t.Fatalf("re-put: %+v, %v", v1b, err)
		}
		got, _, _ = s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
		if string(got) != "one" {
			t.Fatalf("latest after re-put = %q", got)
		}
	})
}

func TestTenantIsolationAndListing(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		for _, put := range []struct{ tenant, name, body string }{
			{"acme", "ota", "acme-ota"},
			{"acme", "buf", "acme-buf"},
			{"globex", "ota", "globex-ota"},
		} {
			if _, err := s.Put(put.tenant, KindModel, put.name, []byte(put.body)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Put("acme", KindCheckpoint, "job", []byte("ck")); err != nil {
			t.Fatal(err)
		}

		// Same name, different tenants: independent content.
		got, _, err := s.Get(Key{Tenant: "globex", Kind: KindModel, Name: "ota"})
		if err != nil || string(got) != "globex-ota" {
			t.Fatalf("globex/ota = %q, %v", got, err)
		}

		infos, err := s.List("acme", KindModel)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 2 || infos[0].Name != "buf" || infos[1].Name != "ota" {
			t.Fatalf("List(acme, models) = %+v", infos)
		}
		// Kinds do not bleed into each other.
		cks, err := s.List("acme", KindCheckpoint)
		if err != nil || len(cks) != 1 || cks[0].Name != "job" {
			t.Fatalf("List(acme, checkpoints) = %+v, %v", cks, err)
		}
		// Unknown tenant lists empty, not an error.
		none, err := s.List("nobody", KindModel)
		if err != nil || len(none) != 0 {
			t.Fatalf("List(nobody) = %+v, %v", none, err)
		}

		tenants, err := s.Tenants()
		if err != nil {
			t.Fatal(err)
		}
		if len(tenants) != 2 || tenants[0] != "acme" || tenants[1] != "globex" {
			t.Fatalf("Tenants = %v", tenants)
		}
	})
}

func TestNotFound(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		if _, _, err := s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "nope"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get missing: %v, want ErrNotFound", err)
		}
		if _, err := s.Stat(Key{Tenant: "acme", Kind: KindModel, Name: "nope"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("Stat missing: %v, want ErrNotFound", err)
		}
		if err := s.Delete(Key{Tenant: "acme", Kind: KindModel, Name: "nope"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete missing: %v, want ErrNotFound", err)
		}
		// A present name with an absent pinned version is also not found.
		if _, err := s.Put("acme", KindModel, "ota", []byte("x")); err != nil {
			t.Fatal(err)
		}
		bogus := Version([]byte("other"))
		if _, _, err := s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota", Version: bogus}); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get bogus version: %v, want ErrNotFound", err)
		}
	})
}

func TestDelete(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		v1, _ := s.Put("acme", KindModel, "ota", []byte("one"))
		v2, _ := s.Put("acme", KindModel, "ota", []byte("two"))

		// Deleting the latest version promotes the remaining one.
		if err := s.Delete(Key{Tenant: "acme", Kind: KindModel, Name: "ota", Version: v2.Version}); err != nil {
			t.Fatal(err)
		}
		got, gi, err := s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
		if err != nil || string(got) != "one" || gi.Version != v1.Version {
			t.Fatalf("after version delete: %q @%s, %v", got, gi.Version, err)
		}
		// Deleting with no version removes the name entirely.
		if err := s.Delete(Key{Tenant: "acme", Kind: KindModel, Name: "ota"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("after delete: %v, want ErrNotFound", err)
		}
		infos, _ := s.List("acme", KindModel)
		if len(infos) != 0 {
			t.Errorf("List after delete = %+v", infos)
		}
	})
}

func TestValidateKey(t *testing.T) {
	good := []string{"a", "ota-demo", "team_a.v2", "A9", "x" + string(make([]byte, 0))}
	for _, s := range good {
		if err := ValidateKey(s); err != nil {
			t.Errorf("ValidateKey(%q) = %v, want ok", s, err)
		}
	}
	bad := []string{
		"", ".", "..", ".hidden", "a/b", `a\b`, "a b", "a\x00b", "über",
		"../escape", "a/../b", string(make([]byte, maxKeyLen+1)),
	}
	for _, s := range bad {
		if err := ValidateKey(s); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("ValidateKey(%q) = %v, want ErrInvalidKey", s, err)
		}
	}
}

// TestPathTraversalRejected drives hostile tenant/name segments against
// a real disk store and asserts both that every operation fails with
// ErrInvalidKey and that nothing is ever created outside (or inside)
// the store root.
func TestPathTraversalRejected(t *testing.T) {
	parent := t.TempDir()
	root := filepath.Join(parent, "store")
	s := OpenDisk(root)
	// A sibling file an escape would overwrite.
	victim := filepath.Join(parent, "victim")
	if err := os.WriteFile(victim, []byte("untouched"), 0o644); err != nil {
		t.Fatal(err)
	}

	hostile := []string{"..", "../..", "../victim", "a/../../victim", "/etc", `..\victim`, ".", ".ssh"}
	for _, tenant := range append(hostile, "ok") {
		for _, name := range append(hostile, "ok") {
			if tenant == "ok" && name == "ok" {
				continue
			}
			if _, err := s.Put(tenant, KindModel, name, []byte("x")); !errors.Is(err, ErrInvalidKey) {
				t.Errorf("Put(%q, %q) = %v, want ErrInvalidKey", tenant, name, err)
			}
			if _, _, err := s.Get(Key{Tenant: tenant, Kind: KindModel, Name: name}); !errors.Is(err, ErrInvalidKey) {
				t.Errorf("Get(%q, %q) = %v, want ErrInvalidKey", tenant, name, err)
			}
			if err := s.Delete(Key{Tenant: tenant, Kind: KindModel, Name: name}); !errors.Is(err, ErrInvalidKey) {
				t.Errorf("Delete(%q, %q) = %v, want ErrInvalidKey", tenant, name, err)
			}
		}
	}
	// Hostile versions must not traverse either.
	for _, v := range []string{"../../victim", "x", "ABCDEF"} {
		if _, _, err := s.Get(Key{Tenant: "ok", Kind: KindModel, Name: "ok", Version: v}); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("Get version %q = %v, want ErrInvalidKey", v, err)
		}
	}

	// Nothing escaped: the root was never even created (no valid write
	// happened), and the victim file is intact.
	if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("store root created by rejected writes: %v", err)
	}
	if b, err := os.ReadFile(victim); err != nil || string(b) != "untouched" {
		t.Errorf("victim file touched: %q, %v", b, err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "victim" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("unexpected entries beside the root: %v", names)
	}
}

// TestCorruptArtefacts damages a real on-disk blob every way the
// envelope guards against and asserts each damage class surfaces its
// typed error — and that all of them are ErrCorrupt, never a panic or
// a silently empty payload.
func TestCorruptArtefacts(t *testing.T) {
	payload := []byte("a model payload of reasonable length")

	newStore := func(t *testing.T) (*Disk, Key, string) {
		s := OpenDisk(t.TempDir())
		info, err := s.Put("acme", KindModel, "ota", payload)
		if err != nil {
			t.Fatal(err)
		}
		return s, info.Key, s.blobPath(info.Version)
	}

	cases := []struct {
		name   string
		damage func(t *testing.T, blobPath string)
		want   error
	}{
		{"bad magic", func(t *testing.T, bp string) {
			b, _ := os.ReadFile(bp)
			copy(b, "XXXX")
			mustWrite(t, bp, b)
		}, ErrBadMagic},
		{"future format version", func(t *testing.T, bp string) {
			b, _ := os.ReadFile(bp)
			b[4], b[5] = 0xFF, 0xFF
			mustWrite(t, bp, b)
		}, ErrBadVersion},
		{"short read", func(t *testing.T, bp string) {
			b, _ := os.ReadFile(bp)
			mustWrite(t, bp, b[:len(b)-7])
		}, ErrTruncated},
		{"header only", func(t *testing.T, bp string) {
			b, _ := os.ReadFile(bp)
			mustWrite(t, bp, b[:5])
		}, ErrTruncated},
		{"flipped payload byte", func(t *testing.T, bp string) {
			b, _ := os.ReadFile(bp)
			b[len(b)-1] ^= 0x01
			mustWrite(t, bp, b)
		}, ErrFingerprint},
		{"missing blob", func(t *testing.T, bp string) {
			if err := os.Remove(bp); err != nil {
				t.Fatal(err)
			}
		}, ErrCorrupt},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, key, bp := newStore(t)
			tc.damage(t, bp)
			got, _, err := s.Get(key)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Get = (%q, %v), want %v", got, err, tc.want)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", err)
			}
			if len(got) != 0 {
				t.Errorf("corrupt read returned a payload: %q", got)
			}
		})
	}

	// A blob holding the wrong content for its address (e.g. a restore
	// from the wrong backup) is caught by the content-address check.
	t.Run("wrong content at address", func(t *testing.T) {
		s, key, bp := newStore(t)
		mustWrite(t, bp, encodeArtefact(KindModel, []byte("not the promised content")))
		if _, _, err := s.Get(key); !errors.Is(err, ErrFingerprint) {
			t.Fatalf("Get = %v, want ErrFingerprint", err)
		}
	})

	// Kind confusion: a checkpoint blob served where a model is expected.
	t.Run("kind mismatch", func(t *testing.T) {
		s, key, bp := newStore(t)
		mustWrite(t, bp, encodeArtefact(KindCheckpoint, payload))
		if _, _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get = %v, want ErrCorrupt", err)
		}
	})
}

// TestPutRepairsDamagedBlob: putting a payload again rewrites a blob
// that is damaged at its content address, and leaves a sound one alone.
func TestPutRepairsDamagedBlob(t *testing.T) {
	payload := []byte("a model payload of reasonable length")
	s := OpenDisk(t.TempDir())
	info, err := s.Put("acme", KindModel, "ota", payload)
	if err != nil {
		t.Fatal(err)
	}
	bp := s.blobPath(info.Version)
	b, err := os.ReadFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, bp, b[:3])
	if _, err := s.Put("acme", KindModel, "ota", payload); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get(info.Key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after a repairing Put = %q, %v", got, err)
	}
	sound, err := os.Stat(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("acme", KindModel, "other", payload); err != nil {
		t.Fatal(err)
	}
	if again, err := os.Stat(bp); err != nil || !os.SameFile(sound, again) {
		t.Fatalf("a Put of identical content rewrote the sound blob (%v)", err)
	}
}

func mustWrite(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSharedRoot simulates two replicas over one directory: what
// one writes, the other reads without any coordination beyond the
// filesystem.
func TestDiskSharedRoot(t *testing.T) {
	root := t.TempDir()
	a, b := OpenDisk(root), OpenDisk(root)
	info, err := a.Put("acme", KindModel, "ota", []byte("shared"))
	if err != nil {
		t.Fatal(err)
	}
	got, gi, err := b.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
	if err != nil || string(got) != "shared" || gi.Version != info.Version {
		t.Fatalf("replica read: %q @%s, %v", got, gi.Version, err)
	}
	// Concurrent identical Puts from both handles converge.
	const n = 8
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		go func() { _, err := a.Put("acme", KindModel, "ota", []byte("converge")); errs <- err }()
		go func() { _, err := b.Put("acme", KindModel, "ota", []byte("converge")); errs <- err }()
	}
	for i := 0; i < 2*n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent put: %v", err)
		}
	}
	got, _, err = b.Get(Key{Tenant: "acme", Kind: KindModel, Name: "ota"})
	if err != nil || string(got) != "converge" {
		t.Fatalf("after concurrent puts: %q, %v", got, err)
	}
}

func TestArtefactEnvelopeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("long"), 1000)} {
		blob := encodeArtefact(KindModel, payload)
		got, err := decodeArtefact(blob, KindModel, Version(payload))
		if err != nil {
			t.Fatalf("decode(%d bytes): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload")
		}
	}
	// Determinism: the envelope of equal payloads is byte-identical
	// (content addressing depends on it).
	p := []byte("determinism")
	if !bytes.Equal(encodeArtefact(KindModel, p), encodeArtefact(KindModel, p)) {
		t.Error("envelope encoding not deterministic")
	}
	if Version(p) != Version(append([]byte(nil), p...)) {
		t.Error("Version not deterministic")
	}
	if Version(p) == Version([]byte("determinism!")) {
		t.Error("distinct payloads share a version")
	}
	if err := fmt.Errorf("wrap: %w", ErrFingerprint); !errors.Is(err, ErrCorrupt) {
		t.Error("ErrFingerprint does not wrap ErrCorrupt")
	}
}
