package attest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"treaty/internal/seal"
	"treaty/internal/shardmap"
)

// Promotion authority: the CAS decides whether a replication backup may
// take over a dead primary's slots. The decision is rollback-resistant
// the same way the shard map is — it is gated on trusted state only the
// CAS holds:
//
//   - Each primary's shipper reports ("witnesses") every replicated
//     commit group to the CAS *before* the group's trusted counter
//     stabilizes, so the CAS always knows the highest group any
//     stabilized counter value can cover, and the digest of the stream
//     prefix up to it.
//   - A backup asking for promotion presents, per stream, how far its
//     mirror reaches and the digest its mirror computes at the
//     witnessed position. A mirror that is shorter than the witness is
//     a rolled-back replica; a mirror whose digest at the witnessed
//     position differs is a forked replica. Both are rejected with
//     distinct errors, exactly like a stale shard map.
//   - A granted promotion is a signed certificate bound to the next
//     shard-map epoch; installing it bumps the epoch, so replaying an
//     old certificate fails the epoch check like any stale map.
var (
	// ErrReplicaRolledBack rejects promotion of a backup whose
	// replicated prefix is shorter than a witnessed (stabilizable)
	// position — promoting it would lose acknowledged commits.
	ErrReplicaRolledBack = errors.New("attest: replica rolled back (replicated prefix behind witnessed stable position)")
	// ErrReplicaForked rejects promotion of a backup whose stream
	// digest diverges from the witnessed prefix — it replicated
	// different history than the primary stabilized.
	ErrReplicaForked = errors.New("attest: replica forked (stream digest mismatch at witnessed position)")
	// ErrPromotionReplayed rejects installation of a promotion
	// certificate that is not bound to the next epoch — a replayed
	// (or raced) certificate.
	ErrPromotionReplayed = errors.New("attest: promotion certificate replayed (epoch mismatch)")
)

// PromotionKeyFor derives the promotion-certificate signing key from
// the cluster network key.
func PromotionKeyFor(networkKey seal.Key) seal.Key {
	return seal.DeriveKey(networkKey, "treaty/promotion")
}

// StreamWitness is the CAS's view of one replication stream of one
// primary: the last group sequence a shipper reported before letting
// its counter stabilize, and the running digest of the stream prefix
// up to it. Degraded marks a stream whose primary stabilized groups it
// could NOT replicate (ship failure): no backup of that stream is
// promotable until resynced.
type StreamWitness struct {
	Stream   uint8
	Seq      uint64
	Digest   [seal.HashSize]byte
	Degraded bool
}

type witnessKey struct {
	primary uint64
	stream  uint8
}

// ReplWitness records that a primary's shipper replicated group seq
// with prefix digest d, before the group stabilizes. Witnesses only
// ratchet forward.
func (c *CAS) ReplWitness(primary uint64, stream uint8, seq uint64, digest [seal.HashSize]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.repl == nil {
		c.repl = make(map[witnessKey]*StreamWitness)
	}
	k := witnessKey{primary, stream}
	w := c.repl[k]
	if w == nil {
		w = &StreamWitness{Stream: stream}
		c.repl[k] = w
	}
	if seq > w.Seq {
		w.Seq = seq
		w.Digest = digest
	}
}

// ReplDegrade durably marks a primary's stream as degraded: the shipper
// is about to stabilize a group it could not replicate, so the backup's
// mirror no longer covers the stable prefix. Sticky until resync (out
// of scope here): promotion of this stream is refused outright.
func (c *CAS) ReplDegrade(primary uint64, stream uint8) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.repl == nil {
		c.repl = make(map[witnessKey]*StreamWitness)
	}
	k := witnessKey{primary, stream}
	w := c.repl[k]
	if w == nil {
		w = &StreamWitness{Stream: stream}
		c.repl[k] = w
	}
	w.Degraded = true
}

// ReplWitnesses returns the witnessed replication state for a primary
// (one entry per stream that ever reported), ordered by stream id.
func (c *CAS) ReplWitnesses(primary uint64) []StreamWitness {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []StreamWitness
	for k, w := range c.repl {
		if k.primary == primary {
			out = append(out, *w)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Stream < out[j-1].Stream; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// StreamClaim is a backup's evidence about one mirrored stream: how far
// the mirror reaches (Seq), and the mirror's running digest at the
// CAS-witnessed position (DigestAtWitness; HaveBoundary is false when
// the mirror has no group boundary at that position — a fork symptom,
// since the primary shipped a group boundary there).
type StreamClaim struct {
	Stream          uint8
	Seq             uint64
	DigestAtWitness [seal.HashSize]byte
	HaveBoundary    bool
}

// PromotionRequest asks the CAS to certify Backup as the successor of
// Primary, with per-stream mirror evidence.
type PromotionRequest struct {
	Primary uint64
	Backup  uint64
	Streams []StreamClaim
}

// PromotionCert is the CAS's counter-bound grant: Backup may take over
// Primary's slots at exactly Epoch (the next shard-map epoch at issue
// time). Installing it advances the epoch, so a certificate can be
// consumed once; replays fail the epoch check.
type PromotionCert struct {
	Primary uint64
	Backup  uint64
	Epoch   uint64
	Streams []StreamClaim
	Sig     [seal.HashSize]byte
}

// encodeBody serializes everything covered by the signature.
func (p *PromotionCert) encodeBody() []byte {
	b := make([]byte, 0, 64)
	b = binary.LittleEndian.AppendUint64(b, p.Primary)
	b = binary.LittleEndian.AppendUint64(b, p.Backup)
	b = binary.LittleEndian.AppendUint64(b, p.Epoch)
	b = append(b, byte(len(p.Streams)))
	for _, s := range p.Streams {
		b = append(b, s.Stream)
		b = binary.LittleEndian.AppendUint64(b, s.Seq)
		b = append(b, s.DigestAtWitness[:]...)
		if s.HaveBoundary {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// Sign signs the certificate under the promotion key.
func (p *PromotionCert) Sign(key seal.Key) {
	p.Sig = seal.MAC(key, p.encodeBody())
}

// VerifySig checks the certificate signature.
func (p *PromotionCert) VerifySig(key seal.Key) bool {
	return seal.VerifyMAC(key, p.Sig, p.encodeBody())
}

// IssuePromotionCert validates a backup's mirror evidence against the
// witnessed replication state and, if every stream's replicated prefix
// covers every position a stabilized counter value can reference,
// returns a signed certificate bound to the next shard-map epoch.
func (c *CAS) IssuePromotionCert(req *PromotionRequest) (*PromotionCert, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shard == nil {
		return nil, errors.New("attest: no shard map deployed")
	}
	if _, ok := c.shard.Addr(req.Backup); !ok {
		return nil, fmt.Errorf("attest: promotion backup %d is not a member", req.Backup)
	}
	// The successor must be the backup the signed epoch records for the
	// primary — promotion eligibility is trust state, not a caller claim.
	if b, ok := c.shard.BackupOf(req.Primary); !ok || b != req.Backup {
		return nil, fmt.Errorf("attest: node %d is not the recorded backup of primary %d", req.Backup, req.Primary)
	}
	claims := make(map[uint8]StreamClaim, len(req.Streams))
	for _, s := range req.Streams {
		claims[s.Stream] = s
	}
	for k, w := range c.repl {
		if k.primary != req.Primary {
			continue
		}
		if w.Degraded {
			return nil, fmt.Errorf("%w: primary %d stream %d stabilized unreplicated groups", ErrReplicaRolledBack, req.Primary, w.Stream)
		}
		if w.Seq == 0 {
			continue // nothing witnessed: any mirror state covers it
		}
		cl, ok := claims[w.Stream]
		if !ok || cl.Seq < w.Seq {
			return nil, fmt.Errorf("%w: primary %d stream %d mirrored to %d, witnessed %d", ErrReplicaRolledBack, req.Primary, w.Stream, cl.Seq, w.Seq)
		}
		if !cl.HaveBoundary || cl.DigestAtWitness != w.Digest {
			return nil, fmt.Errorf("%w: primary %d stream %d", ErrReplicaForked, req.Primary, w.Stream)
		}
	}
	cert := &PromotionCert{
		Primary: req.Primary,
		Backup:  req.Backup,
		Epoch:   c.shard.Epoch + 1,
		Streams: append([]StreamClaim(nil), req.Streams...),
	}
	cert.Sign(PromotionKeyFor(c.config.NetworkKey))
	return cert, nil
}

// InstallPromotion consumes a promotion certificate: it builds and
// installs the successor epoch in which the backup owns every slot the
// primary owned, and the primary's member entry is aliased to the
// backup's address (so in-flight transaction-status probes addressed to
// the dead primary resolve to the live successor). The certificate is
// valid for exactly one epoch transition; any other current epoch means
// it was already consumed (or raced) and is rejected as a replay.
func (c *CAS) InstallPromotion(cert *PromotionCert) (*shardmap.Map, error) {
	c.mu.Lock()
	if c.shard == nil {
		c.mu.Unlock()
		return nil, errors.New("attest: no shard map deployed")
	}
	if !cert.VerifySig(PromotionKeyFor(c.config.NetworkKey)) {
		c.mu.Unlock()
		return nil, errors.New("attest: bad promotion certificate signature")
	}
	if cert.Epoch != c.shard.Epoch+1 {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: cert epoch %d, current %d", ErrPromotionReplayed, cert.Epoch, c.shard.Epoch)
	}
	backupAddr, ok := c.shard.Addr(cert.Backup)
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("attest: promotion backup %d is not a member", cert.Backup)
	}
	next := c.shard.Clone()
	next.Epoch++
	for s := 0; s < shardmap.NumSlots; s++ {
		if next.Slots[s] == cert.Primary {
			next.Slots[s] = cert.Backup
		}
	}
	// The dead primary's own stream is consumed with the certificate, and
	// the members it was backing up run unreplicated from here on; the
	// successor keeps its backup.
	for i := range next.Members {
		mem := &next.Members[i]
		if mem.ID == cert.Primary {
			mem.Addr = backupAddr
			mem.Backup = shardmap.NoBackup
		}
		if mem.Backup == cert.Primary {
			mem.Backup = shardmap.NoBackup
		}
	}
	// The promoted primary's witness state is consumed with the cert.
	for k := range c.repl {
		if k.primary == cert.Primary {
			delete(c.repl, k)
		}
	}
	c.mu.Unlock()
	if err := c.InstallShardMap(next); err != nil {
		return nil, err
	}
	return c.ShardMap(), nil
}
