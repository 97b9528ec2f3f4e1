// Package shardmap implements Treaty's versioned, attested shard map:
// the authoritative assignment of hash slots to cluster nodes.
//
// The key space is partitioned into NumSlots hash slots; every key maps
// to exactly one slot and every slot is owned by exactly one member at
// any epoch. The map is a piece of durable trust state exactly like the
// WAL or the Clog: the CAS signs each epoch under a key derived from
// the cluster network key and binds the epoch number to a trusted
// monotonic counter, so a rolled-back (replayed) map is detected on
// presentation — an attacker who re-serves epoch N after the cluster
// moved to N+1 cannot silently redirect keys to a stale owner (the
// rollback class of "TEE is not a Healer").
//
// Online resharding bumps the epoch: epoch N and N+1 differ only in the
// slots being migrated, and participants reject operations stamped with
// a different epoch than their current view ("wrong epoch", retriable),
// which forces clients and coordinators to refetch the map.
package shardmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"treaty/internal/seal"
)

// NumSlots is the number of hash slots the key space is divided into.
// Slots are the migration granule: small enough that moving one is
// cheap, large enough that the map stays tiny.
const NumSlots = 64

// Errors returned by map verification and decoding.
var (
	// ErrStaleEpoch indicates a map older than the trusted-counter
	// binding allows: a replayed (rolled-back) epoch.
	ErrStaleEpoch = errors.New("shardmap: stale epoch (rolled-back map rejected)")
	// ErrBadSignature indicates the CAS signature check failed.
	ErrBadSignature = errors.New("shardmap: bad signature")
	// ErrMalformed indicates an undecodable serialized map.
	ErrMalformed = errors.New("shardmap: malformed encoding")
)

// SlotOf maps a key to its hash slot (FNV-1a, the same hash family the
// static router used, mod NumSlots).
func SlotOf(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % NumSlots)
}

// Member is one cluster node in the map's membership table. The ID is
// the node's stable cluster id; resolution by explicit id (not list
// position) is what keeps address lookup correct as membership grows.
type Member struct {
	ID   uint64
	Addr string
	// Backup is the member this node ships its whole WAL and Clog to
	// (NoBackup if it is unreplicated). It is part of the signed epoch:
	// promotion hands the node's slots to the backup recorded here, so
	// which replica may take over is trust state, not local
	// configuration. A zero Backup names node 0; a builder that means
	// "none" must say NoBackup.
	Backup uint64
}

// NoBackup is the sentinel Member.Backup of a node with no replication
// backup (single-node clusters, members added after boot, and nodes
// whose backup a promotion consumed).
const NoBackup = ^uint64(0)

// Map is one epoch of the shard map.
type Map struct {
	// Epoch is the map version, incremented by exactly one per change.
	Epoch uint64
	// Counter is the trusted-counter value bound at signing time; the
	// CAS stabilizes its shard-map counter to this value before the map
	// is released, and verification requires Counter == Epoch, so a
	// verifier holding the counter's stable value detects any older
	// epoch as a rollback.
	Counter uint64
	// Members is the membership table, ordered by ID.
	Members []Member
	// Slots assigns each hash slot to an owning member ID. A slot's
	// backup is its owner's Member.Backup, so migrating a slot needs no
	// second assignment.
	Slots [NumSlots]uint64
	// Sig authenticates everything above under the CAS's map key.
	Sig [seal.HashSize]byte
}

// KeyFor derives the shard-map signing key from the cluster network
// key (provisioned only to attested enclaves and authenticated
// clients, so possession of it gates both signing and verification).
func KeyFor(networkKey seal.Key) seal.Key {
	return seal.DeriveKey(networkKey, "treaty/shardmap")
}

// SlotOwner returns the member ID owning a slot.
func (m *Map) SlotOwner(slot int) uint64 { return m.Slots[slot] }

// BackupOf returns the replication backup the map records for member
// id and whether it has one. A non-member, NoBackup and a member
// recorded as its own backup all have none.
func (m *Map) BackupOf(id uint64) (uint64, bool) {
	for _, mem := range m.Members {
		if mem.ID == id {
			if mem.Backup == NoBackup || mem.Backup == id {
				return NoBackup, false
			}
			return mem.Backup, true
		}
	}
	return NoBackup, false
}

// OwnerID returns the member ID owning a key.
func (m *Map) OwnerID(key []byte) uint64 { return m.Slots[SlotOf(key)] }

// Owner returns the RPC address of the node owning a key ("" if the
// owning ID is missing from the membership table — a malformed map).
func (m *Map) Owner(key []byte) string {
	addr, _ := m.Addr(m.OwnerID(key))
	return addr
}

// Addr resolves a member ID to its RPC address through the membership
// table. This is id-keyed, never positional: membership lists grow and
// a node's id is not its index.
func (m *Map) Addr(id uint64) (string, bool) {
	for _, mem := range m.Members {
		if mem.ID == id {
			return mem.Addr, true
		}
	}
	return "", false
}

// Clone returns a deep copy (maps are treated as immutable once
// signed; mutations go through a clone and a fresh signature).
func (m *Map) Clone() *Map {
	c := *m
	c.Members = append([]Member(nil), m.Members...)
	return &c
}

// Uniform builds the epoch-1 map: slots dealt round-robin across the
// members, each member backed up by the next one in the list (none in a
// one-member cluster). This is the boot-time assignment the CAS signs
// for a fresh cluster; the members' own Backup fields are ignored.
func Uniform(members []Member) *Map {
	m := &Map{Epoch: 1, Counter: 1, Members: append([]Member(nil), members...)}
	for i := range m.Members {
		m.Members[i].Backup = NoBackup
		if len(members) > 1 {
			m.Members[i].Backup = members[(i+1)%len(members)].ID
		}
	}
	for s := 0; s < NumSlots; s++ {
		m.Slots[s] = members[s%len(members)].ID
	}
	return m
}

// maxMembers bounds decoding (a malicious length prefix must not drive
// a huge allocation).
const maxMembers = 1 << 12

// encodeBody serializes everything covered by the signature.
func (m *Map) encodeBody() []byte {
	n := 8 + 8 + 2 + NumSlots*8
	for _, mem := range m.Members {
		n += 8 + 8 + 2 + len(mem.Addr)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = binary.LittleEndian.AppendUint64(b, m.Counter)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Members)))
	for _, mem := range m.Members {
		b = binary.LittleEndian.AppendUint64(b, mem.ID)
		b = binary.LittleEndian.AppendUint64(b, mem.Backup)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(mem.Addr)))
		b = append(b, mem.Addr...)
	}
	for _, owner := range m.Slots {
		b = binary.LittleEndian.AppendUint64(b, owner)
	}
	return b
}

// Encode serializes the map including its signature.
func (m *Map) Encode() []byte {
	return append(m.encodeBody(), m.Sig[:]...)
}

// DecodeMap deserializes a map. The signature is carried but NOT
// checked here — call Verify with the map key and the trusted-counter
// floor before using the result.
func DecodeMap(data []byte) (*Map, error) {
	const fixed = 8 + 8 + 2
	if len(data) < fixed+NumSlots*8+seal.HashSize {
		return nil, ErrMalformed
	}
	m := &Map{
		Epoch:   binary.LittleEndian.Uint64(data[0:]),
		Counter: binary.LittleEndian.Uint64(data[8:]),
	}
	nm := int(binary.LittleEndian.Uint16(data[16:]))
	if nm > maxMembers {
		return nil, ErrMalformed
	}
	rest := data[fixed:]
	m.Members = make([]Member, 0, nm)
	for i := 0; i < nm; i++ {
		if len(rest) < 18 {
			return nil, ErrMalformed
		}
		mem := Member{
			ID:     binary.LittleEndian.Uint64(rest[0:]),
			Backup: binary.LittleEndian.Uint64(rest[8:]),
		}
		al := int(binary.LittleEndian.Uint16(rest[16:]))
		rest = rest[18:]
		if len(rest) < al {
			return nil, ErrMalformed
		}
		mem.Addr = string(rest[:al])
		m.Members = append(m.Members, mem)
		rest = rest[al:]
	}
	if len(rest) != NumSlots*8+seal.HashSize {
		return nil, ErrMalformed
	}
	for s := 0; s < NumSlots; s++ {
		m.Slots[s] = binary.LittleEndian.Uint64(rest[s*8:])
	}
	copy(m.Sig[:], rest[NumSlots*8:])
	return m, nil
}

// Sign computes the map's signature under the CAS map key (HMAC-SHA256
// over the serialized body).
func (m *Map) Sign(key seal.Key) {
	m.Sig = seal.MAC(key, m.encodeBody())
}

// Verify checks the map's authenticity and freshness:
//
//   - the signature must verify under key,
//   - the counter binding must hold (Counter == Epoch: the CAS
//     stabilizes the shard-map counter to the epoch it signs),
//   - the epoch must be at least minEpoch, the verifier's trusted
//     floor (the counter service's stable value, or the verifier's
//     current view) — anything older is a replayed map.
//
// Structural invariants are checked too: every slot's owner and every
// member's backup must be a member, so a verified map always routes
// every key, and every node's replication stream, to a resolvable
// address.
func (m *Map) Verify(key seal.Key, minEpoch uint64) error {
	if !seal.VerifyMAC(key, m.Sig, m.encodeBody()) {
		return ErrBadSignature
	}
	if m.Counter != m.Epoch {
		return fmt.Errorf("%w: counter %d != epoch %d", ErrStaleEpoch, m.Counter, m.Epoch)
	}
	if m.Epoch < minEpoch {
		return fmt.Errorf("%w: epoch %d < trusted floor %d", ErrStaleEpoch, m.Epoch, minEpoch)
	}
	if len(m.Members) == 0 {
		return fmt.Errorf("%w: no members", ErrMalformed)
	}
	ids := make(map[uint64]bool, len(m.Members))
	for _, mem := range m.Members {
		if ids[mem.ID] {
			return fmt.Errorf("%w: duplicate member id %d", ErrMalformed, mem.ID)
		}
		ids[mem.ID] = true
	}
	for _, mem := range m.Members {
		if mem.Backup != NoBackup && !ids[mem.Backup] {
			return fmt.Errorf("%w: member %d backed up by non-member %d", ErrMalformed, mem.ID, mem.Backup)
		}
	}
	for s, owner := range m.Slots {
		if !ids[owner] {
			return fmt.Errorf("%w: slot %d owned by non-member %d", ErrMalformed, s, owner)
		}
	}
	return nil
}

// Holder is an atomically swappable reference to the current map; it
// is the live routing table a node, a client or a coordinator holds.
type Holder struct {
	m atomic.Pointer[Map]
	// floor is the highest epoch this holder has ever verified: the
	// rollback floor a replayed older map is checked against.
	floor atomic.Uint64
}

// NewHolder creates a holder (optionally pre-seeded with an unverified
// map, for rigs without a CAS).
func NewHolder(m *Map) *Holder {
	h := &Holder{}
	if m != nil {
		h.m.Store(m)
	}
	return h
}

// View returns the current map (nil before the first map is held).
func (h *Holder) View() *Map { return h.m.Load() }

// Store swaps in a new map unverified. Only rigs without a CAS use it;
// a node or client accepts a map through Apply.
func (h *Holder) Store(m *Map) { h.m.Store(m) }

// Apply is the one acceptance routine for a presented map. It verifies
// m under key against the higher of trusted (the shard-map counter's
// stable value) and the highest epoch this holder has verified, so a
// replayed older map fails with ErrStaleEpoch even when genuinely
// signed. A verified map raises that floor and, if it is newer than the
// current view, is installed as a copy; a late older map never replaces
// a newer one, however concurrent applies interleave.
func (h *Holder) Apply(m *Map, key seal.Key, trusted uint64) error {
	if err := m.Verify(key, max(trusted, h.floor.Load())); err != nil {
		return err
	}
	for {
		cur := h.floor.Load()
		if m.Epoch <= cur || h.floor.CompareAndSwap(cur, m.Epoch) {
			break
		}
	}
	c := m.Clone()
	for {
		cur := h.m.Load()
		if cur != nil && cur.Epoch >= m.Epoch || h.m.CompareAndSwap(cur, c) {
			return nil
		}
	}
}
