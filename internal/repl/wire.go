// Package repl implements Treaty's per-shard primary-backup
// replication: the primary ships every fsynced WAL/Clog commit group to
// an attested backup *before* the group's trusted counter stabilizes,
// so any counter value a verifier can observe as stable is covered by a
// prefix that is durable on at least two nodes. A shipped record is the
// durlog.Entry the source log committed; the backup mirrors the groups
// without applying them — application happens once, at promotion,
// through the fold crash recovery uses — and promotion is gated by the
// CAS: the shipper witnesses each replicated group to the CAS's trusted
// state, and a rolled-back or forked mirror fails the witness check
// exactly like a stale shard map.
package repl

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"treaty/internal/durlog"
	"treaty/internal/seal"
)

// Stream identifiers: each primary ships two independent streams, one
// per durable log.
const (
	// StreamWAL carries the storage engine's write-ahead log records.
	StreamWAL uint8 = 1
	// StreamClog carries the coordinator log records.
	StreamClog uint8 = 2
)

// wireVersion is the ship-request wire version.
const wireVersion = 1

// Decoding bounds: a malicious length prefix must not drive a huge
// allocation.
const (
	maxEntryPayload = 1 << 20
	maxEntries      = 1 << 12
)

// ErrMalformedShip indicates an undecodable ship request.
var ErrMalformedShip = errors.New("repl: malformed ship request")

// ShipRequest is one replicated commit group: the source log's entries
// (kind, counter and raw payload, exactly as committed). Seq numbers
// groups per (primary, stream) contiguously from 1 — the mirror's
// replicated prefix is "every group up to Seq" — and Digest is the
// running prefix digest after this group (chained per record, so two
// mirrors agreeing on (Seq, Digest) hold identical histories). Sig
// authenticates the proof fields under the cluster replication key.
type ShipRequest struct {
	Stream  uint8
	Primary uint64
	Entries []durlog.Entry
	Seq     uint64
	Digest  [seal.HashSize]byte
	Sig     [seal.HashSize]byte
}

// KeyFor derives the replication proof key from the cluster network
// key.
func KeyFor(networkKey seal.Key) seal.Key {
	return seal.DeriveKey(networkKey, "treaty/repl")
}

// ChainDigest folds a group's entries into the running stream digest:
// d' = H(d ∥ kind ∥ counter ∥ payload) per entry. The chain makes the
// digest a commitment to the entire stream prefix, so a fork anywhere
// in history changes every later digest.
func ChainDigest(d [seal.HashSize]byte, entries []durlog.Entry) [seal.HashSize]byte {
	var ctr [8]byte
	for _, e := range entries {
		h := sha256.New()
		h.Write(d[:])
		h.Write([]byte{e.Kind})
		binary.LittleEndian.PutUint64(ctr[:], e.Counter)
		h.Write(ctr[:])
		h.Write(e.Payload)
		copy(d[:], h.Sum(nil))
	}
	return d
}

// Chain is one stream's position under the rule every shipped group
// obeys: it is numbered one past the last acked group, its digest chains
// on that group's, and it is signed under the replication key. Only an
// ack moves the position.
type Chain struct {
	stream  uint8
	primary uint64
	key     seal.Key
	seq     uint64
	digest  [seal.HashSize]byte
}

// NewChain starts a stream's chain at group 0 (networkKey is the cluster
// network key; the proof key is derived).
func NewChain(stream uint8, primary uint64, networkKey seal.Key) *Chain {
	return &Chain{stream: stream, primary: primary, key: KeyFor(networkKey)}
}

// Next builds the signed request for the group after the last acked one.
// The request references entries; Encode copies them.
func (c *Chain) Next(entries []durlog.Entry) *ShipRequest {
	req := &ShipRequest{Stream: c.stream, Primary: c.primary, Entries: entries, Seq: c.seq + 1}
	req.Digest = ChainDigest(c.digest, entries)
	req.Sign(c.key)
	return req
}

// Acked advances the position past req, which the backup acknowledged.
func (c *Chain) Acked(req *ShipRequest) { c.seq, c.digest = req.Seq, req.Digest }

// Seq returns the last acked group sequence.
func (c *Chain) Seq() uint64 { return c.seq }

// signBody is the byte string the proof signature covers.
func (r *ShipRequest) signBody() []byte {
	b := make([]byte, 0, 2+8+8+seal.HashSize)
	b = append(b, wireVersion, r.Stream)
	b = binary.LittleEndian.AppendUint64(b, r.Primary)
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	b = append(b, r.Digest[:]...)
	return b
}

// Sign computes the proof signature under the replication key
// (HMAC-SHA256, like the shard map's signature).
func (r *ShipRequest) Sign(key seal.Key) {
	r.Sig = seal.MAC(key, r.signBody())
}

// VerifySig checks the proof signature.
func (r *ShipRequest) VerifySig(key seal.Key) bool {
	return seal.VerifyMAC(key, r.Sig, r.signBody())
}

// Encode serializes a ship request.
func (r *ShipRequest) Encode() []byte {
	n := 1 + 1 + 8 + 2 + 8 + 2*seal.HashSize
	for _, e := range r.Entries {
		n += 1 + 8 + 4 + len(e.Payload)
	}
	b := make([]byte, 0, n)
	b = append(b, wireVersion, r.Stream)
	b = binary.LittleEndian.AppendUint64(b, r.Primary)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		b = append(b, e.Kind)
		b = binary.LittleEndian.AppendUint64(b, e.Counter)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Payload)))
		b = append(b, e.Payload...)
	}
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	b = append(b, r.Digest[:]...)
	b = append(b, r.Sig[:]...)
	return b
}

// DecodeShipRequest deserializes a ship request, bounds-checking every
// length. Entry payloads alias data. The signature is carried but NOT
// checked here — call VerifySig before trusting the proof fields.
func DecodeShipRequest(data []byte) (*ShipRequest, error) {
	if len(data) < 12 {
		return nil, ErrMalformedShip
	}
	if data[0] != wireVersion {
		return nil, fmt.Errorf("%w: version %d", ErrMalformedShip, data[0])
	}
	r := &ShipRequest{Stream: data[1], Primary: binary.LittleEndian.Uint64(data[2:])}
	if r.Stream != StreamWAL && r.Stream != StreamClog {
		return nil, fmt.Errorf("%w: stream %d", ErrMalformedShip, r.Stream)
	}
	count := int(binary.LittleEndian.Uint16(data[10:]))
	if count > maxEntries {
		return nil, ErrMalformedShip
	}
	rest := data[12:]
	r.Entries = make([]durlog.Entry, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 13 {
			return nil, ErrMalformedShip
		}
		e := durlog.Entry{Kind: rest[0], Counter: binary.LittleEndian.Uint64(rest[1:])}
		plen := int(binary.LittleEndian.Uint32(rest[9:]))
		rest = rest[13:]
		if plen > maxEntryPayload || len(rest) < plen {
			return nil, ErrMalformedShip
		}
		e.Payload = rest[:plen:plen]
		rest = rest[plen:]
		r.Entries = append(r.Entries, e)
	}
	if len(rest) != 8+2*seal.HashSize {
		return nil, ErrMalformedShip
	}
	r.Seq = binary.LittleEndian.Uint64(rest)
	copy(r.Digest[:], rest[8:])
	copy(r.Sig[:], rest[8+seal.HashSize:])
	return r, nil
}
