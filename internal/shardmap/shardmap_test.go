package shardmap

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"treaty/internal/seal"
)

func testMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{ID: uint64(i), Addr: fmt.Sprintf("node-%d", i)}
	}
	return ms
}

func testKey(t *testing.T) seal.Key {
	t.Helper()
	k, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	return KeyFor(k)
}

// Every key routes to exactly one owner at every epoch: the owning
// member is unique by construction (one Slots entry per slot), and the
// address resolution must never come back empty for a verified map.
func TestEveryKeyRoutesToExactlyOneOwner(t *testing.T) {
	key := testKey(t)
	m := Uniform(testMembers(5))
	m.Sign(key)
	if err := m.Verify(key, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		owner := m.Owner(k)
		if owner == "" {
			t.Fatalf("key %q routed to empty owner", k)
		}
		// Deterministic and single-valued.
		if again := m.Owner(k); again != owner {
			t.Fatalf("key %q routed to %q then %q", k, owner, again)
		}
		// The owner must be the member owning the key's slot — there is
		// no second route.
		if id := m.OwnerID(k); m.Slots[SlotOf(k)] != id {
			t.Fatalf("key %q: OwnerID %d != slot owner %d", k, id, m.Slots[SlotOf(k)])
		}
	}
}

// The uniform map spreads slots across every member.
func TestUniformCoversAllMembers(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		m := Uniform(testMembers(n))
		seen := map[uint64]bool{}
		for _, owner := range m.Slots {
			seen[owner] = true
		}
		if len(seen) != n {
			t.Errorf("n=%d: uniform map uses %d members", n, len(seen))
		}
	}
}

// Epoch N and N+1 differ only in the migrated slots.
func TestEpochSuccessorDiffersOnlyInMigratedSlots(t *testing.T) {
	key := testKey(t)
	prev := Uniform(testMembers(3))
	prev.Sign(key)
	migrated := map[int]bool{7: true, 13: true}
	next := prev.Clone()
	next.Epoch++
	next.Counter = next.Epoch
	for s := range migrated {
		next.Slots[s] = 2 // all to member 2
	}
	next.Sign(key)
	if err := next.Verify(key, prev.Epoch); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < NumSlots; s++ {
		if migrated[s] {
			continue
		}
		if prev.Slots[s] != next.Slots[s] {
			t.Fatalf("slot %d changed across epochs without migration: %d -> %d",
				s, prev.Slots[s], next.Slots[s])
		}
	}
	// And keys in unmigrated slots keep their owner.
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("stable-%d", i))
		if migrated[SlotOf(k)] {
			continue
		}
		if prev.Owner(k) != next.Owner(k) {
			t.Fatalf("key %q moved without its slot migrating", k)
		}
	}
}

// Member backups ride in the encoding: a backup, NoBackup and node 0
// (the zero value) all come back as they went in.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	key := testKey(t)
	m := Uniform(testMembers(4))
	m.Epoch, m.Counter = 9, 9
	m.Members[1].Backup = NoBackup
	m.Sign(key)
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Counter != m.Counter || len(got.Members) != 4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i, mem := range got.Members {
		if mem != m.Members[i] {
			t.Fatalf("member %d mismatch: %+v vs %+v", i, mem, m.Members[i])
		}
	}
	if b, ok := got.BackupOf(3); !ok || b != 0 {
		t.Fatalf("decoded BackupOf(3) = %d, %v; want node 0", b, ok)
	}
	if got.Slots != m.Slots || got.Sig != m.Sig {
		t.Fatal("slots or signature did not round trip")
	}
	if err := got.Verify(key, 9); err != nil {
		t.Fatalf("decoded map failed verification: %v", err)
	}
}

// A replayed older epoch is rejected by the counter-binding floor even
// though its signature is genuine — the rollback-detection property.
func TestStaleEpochRejected(t *testing.T) {
	key := testKey(t)
	old := Uniform(testMembers(3))
	old.Sign(key)
	if err := old.Verify(key, old.Epoch+1); err == nil {
		t.Fatal("replayed old epoch passed verification")
	} else if !isStale(err) {
		t.Fatalf("want ErrStaleEpoch, got %v", err)
	}
	// An epoch whose counter binding was never stabilized (counter !=
	// epoch) is also a rollback artifact.
	forked := old.Clone()
	forked.Epoch = 5 // counter still 1
	forked.Sign(key)
	if err := forked.Verify(key, 0); err == nil || !isStale(err) {
		t.Fatalf("counter/epoch mismatch accepted: %v", err)
	}
}

func isStale(err error) bool {
	for e := err; e != nil; {
		if e == ErrStaleEpoch {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestTamperedMapRejected(t *testing.T) {
	key := testKey(t)
	m := Uniform(testMembers(3))
	m.Sign(key)
	tampered := m.Clone()
	tampered.Slots[0] = 1 // redirect a slot without re-signing
	if err := tampered.Verify(key, 0); err != ErrBadSignature {
		t.Fatalf("tampered map: want ErrBadSignature, got %v", err)
	}
	// The backup is signed too: redirecting a takeover is tampering.
	rebacked := m.Clone()
	rebacked.Members[0].Backup = 2
	if err := rebacked.Verify(key, 0); err != ErrBadSignature {
		t.Fatalf("re-backed map: want ErrBadSignature, got %v", err)
	}
	// Wrong key (an unattested party cannot mint maps).
	other := testKey(t)
	if err := m.Verify(other, 0); err != ErrBadSignature {
		t.Fatalf("wrong key: want ErrBadSignature, got %v", err)
	}
}

// A verified map never routes to an unresolvable owner: slots owned by
// non-members fail verification.
func TestVerifyRejectsNonMemberOwner(t *testing.T) {
	key := testKey(t)
	m := Uniform(testMembers(3))
	m.Slots[11] = 99
	m.Sign(key)
	if err := m.Verify(key, 0); err == nil {
		t.Fatal("slot owned by non-member passed verification")
	}
}

func TestAddrIsIDKeyedNotPositional(t *testing.T) {
	// Sparse, non-dense IDs: positional indexing would resolve these
	// wrongly (or not at all).
	m := &Map{
		Epoch: 1, Counter: 1,
		Members: []Member{{ID: 7, Addr: "node-7"}, {ID: 3, Addr: "node-3"}},
	}
	if a, ok := m.Addr(3); !ok || a != "node-3" {
		t.Fatalf("Addr(3) = %q, %v", a, ok)
	}
	if a, ok := m.Addr(7); !ok || a != "node-7" {
		t.Fatalf("Addr(7) = %q, %v", a, ok)
	}
	if _, ok := m.Addr(0); ok {
		t.Fatal("Addr(0) resolved for a non-member")
	}
}

// A member's backup is recorded on the member, so BackupOf answers for
// a node, never for a slot: a member with a backup, one with NoBackup,
// one recorded as its own backup, and a non-member.
func TestBackupOf(t *testing.T) {
	m := Uniform(testMembers(3))
	m.Members[1].Backup = NoBackup
	m.Members[2].Backup = 2
	for _, tc := range []struct {
		id     uint64
		want   uint64
		wantOK bool
	}{
		{0, 1, true},
		{1, NoBackup, false},
		{2, NoBackup, false},
		{9, NoBackup, false},
	} {
		if got, ok := m.BackupOf(tc.id); got != tc.want || ok != tc.wantOK {
			t.Errorf("BackupOf(%d) = %d, %v; want %d, %v", tc.id, got, ok, tc.want, tc.wantOK)
		}
	}
	// A one-member cluster has nobody to ship to.
	if b, ok := Uniform(testMembers(1)).BackupOf(0); ok {
		t.Errorf("single member backed up by %d", b)
	}
}

func TestVerifyRejectsNonMemberBackup(t *testing.T) {
	key := testKey(t)
	m := Uniform(testMembers(3))
	m.Members[1].Backup = 99
	m.Sign(key)
	if err := m.Verify(key, 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("member backed up by non-member: got %v, want ErrMalformed", err)
	}
}

// signedAt returns a genuinely signed, counter-bound map at epoch e.
func signedAt(key seal.Key, e uint64) *Map {
	m := Uniform(testMembers(3))
	m.Epoch, m.Counter = e, e
	m.Sign(key)
	return m
}

func TestHolderApply(t *testing.T) {
	key := testKey(t)
	t.Run("swap", func(t *testing.T) {
		h := NewHolder(nil)
		if h.View() != nil {
			t.Fatal("empty holder returned a map")
		}
		for _, e := range []uint64{1, 2} {
			m := signedAt(key, e)
			if err := h.Apply(m, key, 0); err != nil {
				t.Fatal(err)
			}
			if v := h.View(); v == m || v.Epoch != e {
				t.Fatalf("view at epoch %d, want a copy of epoch %d", v.Epoch, e)
			}
		}
	})
	t.Run("older-keeps-newer", func(t *testing.T) {
		h := NewHolder(nil)
		for _, e := range []uint64{1, 3} {
			if err := h.Apply(signedAt(key, e), key, 0); err != nil {
				t.Fatal(err)
			}
		}
		// Epoch 2 is genuine and verifies against the counter alone, but
		// this holder has verified epoch 3.
		if err := h.Apply(signedAt(key, 2), key, 0); !isStale(err) {
			t.Fatalf("older epoch after a newer one: got %v, want ErrStaleEpoch", err)
		}
		if got := h.View().Epoch; got != 3 {
			t.Fatalf("view at epoch %d, want 3", got)
		}
		// Re-applying the current epoch is accepted and changes nothing.
		cur := h.View()
		if err := h.Apply(signedAt(key, 3), key, 0); err != nil || h.View() != cur {
			t.Fatalf("same-epoch apply: err %v, view replaced %v", err, h.View() != cur)
		}
	})
	t.Run("stale-against-trusted", func(t *testing.T) {
		h := NewHolder(nil)
		if err := h.Apply(signedAt(key, 1), key, 2); !isStale(err) {
			t.Fatalf("epoch below the trusted counter: got %v, want ErrStaleEpoch", err)
		}
		if h.View() != nil {
			t.Fatal("a rejected map was installed")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const n = 16
		maps := make([]*Map, n)
		for i := range maps {
			maps[i] = signedAt(key, uint64(i+1))
		}
		for round := 0; round < 200; round++ {
			h := NewHolder(nil)
			var wg sync.WaitGroup
			for _, m := range maps {
				wg.Add(1)
				go func(m *Map) {
					defer wg.Done()
					// A late older map may fail the floor; it must not win.
					if err := h.Apply(m, key, 0); err != nil && !isStale(err) {
						t.Error(err)
					}
				}(m)
			}
			wg.Wait()
			if got := h.View().Epoch; got != n {
				t.Fatalf("round %d: concurrent applies ended at epoch %d, want %d", round, got, n)
			}
		}
	})
}
