package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLeaseLifecycle(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		l, err := s.AcquireLease("default", "job1", "replica-a", time.Minute)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if l.Token == 0 || l.Owner != "replica-a" {
			t.Fatalf("bad lease: %+v", l)
		}
		// Held: nobody else can acquire, not even the holder.
		if _, err := s.AcquireLease("default", "job1", "replica-b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("want ErrLeaseHeld, got %v", err)
		}
		if _, err := s.AcquireLease("default", "job1", "replica-a", time.Minute); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("re-acquire by holder: want ErrLeaseHeld, got %v", err)
		}
		// A different name is independent.
		if _, err := s.AcquireLease("default", "job2", "replica-b", time.Minute); err != nil {
			t.Fatalf("acquire other name: %v", err)
		}
		// Renew extends; the token is stable.
		l2, err := s.RenewLease(l, time.Minute)
		if err != nil {
			t.Fatalf("renew: %v", err)
		}
		if l2.Token != l.Token {
			t.Fatalf("renew changed token %d -> %d", l.Token, l2.Token)
		}
		if !l2.Expires.After(l.Expires.Add(-time.Second)) {
			t.Fatalf("renew did not extend: %v -> %v", l.Expires, l2.Expires)
		}
		// Release frees immediately; the next acquisition gets a higher
		// token.
		if err := s.ReleaseLease(l2); err != nil {
			t.Fatalf("release: %v", err)
		}
		l3, err := s.AcquireLease("default", "job1", "replica-b", time.Minute)
		if err != nil {
			t.Fatalf("acquire after release: %v", err)
		}
		if l3.Token <= l2.Token {
			t.Fatalf("token regressed: %d after %d", l3.Token, l2.Token)
		}
		// The old holder's handle is dead.
		if _, err := s.RenewLease(l2, time.Minute); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("renew after takeover: want ErrLeaseLost, got %v", err)
		}
		if err := s.ReleaseLease(l2); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("release after takeover: want ErrLeaseLost, got %v", err)
		}
	})
}

func TestLeaseExpiry(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		l, err := s.AcquireLease("default", "job1", "replica-a", 20*time.Millisecond)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		// Live: a peer is refused.
		if _, err := s.AcquireLease("default", "job1", "replica-b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("want ErrLeaseHeld, got %v", err)
		}
		time.Sleep(40 * time.Millisecond)
		// Lapsed: the peer takes over with a higher token.
		l2, err := s.AcquireLease("default", "job1", "replica-b", time.Minute)
		if err != nil {
			t.Fatalf("acquire after expiry: %v", err)
		}
		if l2.Token <= l.Token {
			t.Fatalf("token regressed: %d after %d", l2.Token, l.Token)
		}
		if _, err := s.RenewLease(l, time.Minute); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("zombie renew: want ErrLeaseLost, got %v", err)
		}
	})
}

func TestLeaseValidation(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		cases := []struct{ tenant, name, owner string }{
			{"", "n", "o"},
			{"t", "", "o"},
			{"t", "n", ""},
			{"../t", "n", "o"},
			{"t", "a/b", "o"},
		}
		for _, c := range cases {
			if _, err := s.AcquireLease(c.tenant, c.name, c.owner, time.Minute); !errors.Is(err, ErrInvalidKey) {
				t.Errorf("acquire(%q,%q,%q): want ErrInvalidKey, got %v", c.tenant, c.name, c.owner, err)
			}
		}
		if _, err := s.AcquireLease("t", "n", "o", -time.Second); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("negative ttl: want ErrInvalidKey, got %v", err)
		}
		if _, err := s.RenewLease(Lease{}, time.Minute); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("renew zero lease: want ErrInvalidKey, got %v", err)
		}
		if err := s.ReleaseLease(Lease{}); !errors.Is(err, ErrInvalidKey) {
			t.Errorf("release zero lease: want ErrInvalidKey, got %v", err)
		}
	})
}

// TestLeaseContention is the -race contention hammer: many goroutines
// across TWO store handles on one root (two replica processes sharing
// the directory) race to acquire one name; every round must elect
// exactly one winner.
func TestLeaseContention(t *testing.T) {
	root := t.TempDir()
	pair := [2]Store{OpenDisk(root), OpenDisk(root)}
	t.Run("disk", func(t *testing.T) {
		const contenders = 8
		rounds := 20
		if testing.Short() {
			rounds = 5
		}
		for round := 0; round < rounds; round++ {
			job := fmt.Sprintf("job-%03d", round)
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				winners []Lease
			)
			start := make(chan struct{})
			for c := 0; c < contenders; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					st := pair[c%2]
					owner := fmt.Sprintf("replica-%d", c)
					<-start
					l, err := st.AcquireLease("default", job, owner, time.Minute)
					if err == nil {
						mu.Lock()
						winners = append(winners, l)
						mu.Unlock()
					} else if !errors.Is(err, ErrLeaseHeld) {
						t.Errorf("round %d owner %s: unexpected error %v", round, owner, err)
					}
				}(c)
			}
			close(start)
			wg.Wait()
			if len(winners) != 1 {
				t.Fatalf("round %d: %d winners, want exactly 1 (%+v)", round, len(winners), winners)
			}
			if err := pair[0].ReleaseLease(winners[0]); err != nil {
				// The winner's handle may belong to the other store;
				// release through it instead.
				if err2 := pair[1].ReleaseLease(winners[0]); err2 != nil {
					t.Fatalf("round %d release: %v / %v", round, err, err2)
				}
			}
		}
	})
}

// TestLeaseFencingRejectsZombie pins the fencing contract: after a
// lease expires and a successor takes over and writes, the zombie
// original's fenced writes are rejected — it cannot clobber the
// successor's progress.
func TestLeaseFencingRejectsZombie(t *testing.T) {
	onDisk(t, func(t *testing.T, s Store) {
		zombie, err := s.AcquireLease("default", "m", "replica-a", 20*time.Millisecond)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		// The holder writes a first checkpoint while live.
		if _, err := s.PutIfLeased(zombie, KindCheckpoint, "m", []byte("ckpt-1")); err != nil {
			t.Fatalf("live fenced write: %v", err)
		}
		time.Sleep(40 * time.Millisecond) // lease lapses; holder doesn't notice

		succ, err := s.AcquireLease("default", "m", "replica-b", time.Minute)
		if err != nil {
			t.Fatalf("takeover: %v", err)
		}
		if _, err := s.PutIfLeased(succ, KindCheckpoint, "m", []byte("ckpt-2")); err != nil {
			t.Fatalf("successor fenced write: %v", err)
		}

		// The zombie wakes up and tries to write its stale state.
		if _, err := s.PutIfLeased(zombie, KindCheckpoint, "m", []byte("ckpt-stale")); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("zombie write: want ErrLeaseLost, got %v", err)
		}
		// The successor's checkpoint is untouched.
		got, _, err := s.Get(Key{Tenant: "default", Kind: KindCheckpoint, Name: "m"})
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if string(got) != "ckpt-2" {
			t.Fatalf("checkpoint clobbered: %q", got)
		}
		// An expired-but-unclaimed lease also refuses writes: expiry alone
		// fences, takeover is not required.
		l3, err := s.AcquireLease("default", "m2", "replica-a", 20*time.Millisecond)
		if err != nil {
			t.Fatalf("acquire m2: %v", err)
		}
		time.Sleep(40 * time.Millisecond)
		if _, err := s.PutIfLeased(l3, KindCheckpoint, "m2", []byte("x")); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("expired write: want ErrLeaseLost, got %v", err)
		}
	})
}

// TestLeaseDiskCrashRecovery simulates a crashed holder: the lease
// file exists with a future expiry but nobody renews. A second store
// handle on the same root takes over exactly once the TTL lapses.
func TestLeaseDiskCrashRecovery(t *testing.T) {
	root := t.TempDir()
	a, b := OpenDisk(root), OpenDisk(root)
	l, err := a.AcquireLease("default", "job1", "replica-a", 50*time.Millisecond)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// "Crash": replica-a is gone; b polls until the TTL admits it.
	deadline := time.Now().Add(5 * time.Second)
	var l2 Lease
	for {
		l2, err = b.AcquireLease("default", "job1", "replica-b", time.Minute)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("takeover poll: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("takeover never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if l2.Token <= l.Token {
		t.Fatalf("token regressed across crash: %d after %d", l2.Token, l.Token)
	}
	if !time.Now().After(l.Expires) {
		t.Fatalf("takeover admitted before expiry %v", l.Expires)
	}
}
