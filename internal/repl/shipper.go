package repl

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/twopc"
)

// Witness is the trusted anchor the shipper reports to before letting a
// group stabilize: implemented by *attest.CAS. ReplWitness records a
// replicated group; ReplDegrade durably marks the stream unpromotable
// after a ship failure (the stable prefix is about to outrun the
// mirror).
type Witness interface {
	ReplWitness(primary uint64, stream uint8, seq uint64, digest [seal.HashSize]byte)
	ReplDegrade(primary uint64, stream uint8)
}

// ShipperConfig configures one stream's shipper.
type ShipperConfig struct {
	// Stream is StreamWAL or StreamClog.
	Stream uint8
	// Primary is this node's cluster id.
	Primary uint64
	// Endpoint sends the ship RPCs.
	Endpoint *erpc.Endpoint
	// BackupOf returns the backup the current shard map records for this
	// primary (false if none). Consulted per group, so a promotion that
	// consumes the backup stops shipping cleanly.
	BackupOf func() (uint64, bool)
	// AddrOf resolves a node id to its RPC address through the current
	// shard map (id-keyed, never positional).
	AddrOf func(uint64) (string, bool)
	// Witness is the CAS anchor; required.
	Witness Witness
	// Key is the cluster network key (the proof key is derived).
	Key seal.Key
	// Timeout bounds one ship attempt (default 250ms).
	Timeout time.Duration
	// Metrics, when non-nil, exports the repl.ship_* counters.
	Metrics *obs.Registry
}

// shipAttempts bounds the ship attempts per group. The backup acks
// duplicate sequence numbers idempotently, so re-sending a timed-out
// group is safe. The budget is the de-facto backup failure detector: a
// group that exhausts it durably degrades the stream, so it must be
// generous enough that transient packet loss practically never burns a
// stream's promotability — one lost datagram costs a whole attempt
// (erpc.Call does not retransmit within a timeout).
const (
	shipAttempts = 8
	shipRetryCap = 200 * time.Millisecond
)

// Shipper replicates one log stream. It is driven synchronously from
// the log's group-commit leader (the lsm committer or the Clog leader)
// via the Ship hook, so calls never overlap and the per-stream sequence
// is race-free.
type Shipper struct {
	cfg     ShipperConfig
	chain   *Chain
	target  uint64
	bound   bool
	stopped atomic.Bool

	// degraded latches after a ship failure: the stream's stable prefix
	// has outrun the mirror, so later groups are skipped (resync is out
	// of scope) and the witness carries a durable degrade mark.
	degraded bool

	groups    *obs.Counter
	acked     *obs.Counter
	failed    *obs.Counter
	skipped   *obs.Counter
	seqGauge  *obs.Gauge
	noBackups *obs.Counter
}

// NewShipper creates a shipper for one stream.
func NewShipper(cfg ShipperConfig) *Shipper {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	s := &Shipper{cfg: cfg, chain: NewChain(cfg.Stream, cfg.Primary, cfg.Key)}
	if m := cfg.Metrics; m != nil {
		s.groups = m.Counter("repl.ship_groups")
		s.acked = m.Counter("repl.ship_acked")
		s.failed = m.Counter("repl.ship_failed")
		s.skipped = m.Counter("repl.ship_skipped")
		s.noBackups = m.Counter("repl.ship_unassigned")
		if cfg.Stream == StreamWAL {
			s.seqGauge = m.Gauge("repl.shipped_seq.wal")
		} else {
			s.seqGauge = m.Gauge("repl.shipped_seq.clog")
		}
	}
	return s
}

// Stop makes later Ship calls no-ops (teardown: the node is shutting
// down and its endpoint is about to close).
func (s *Shipper) Stop() { s.stopped.Store(true) }

// Seq returns the last acked group sequence.
func (s *Shipper) Seq() uint64 { return s.chain.Seq() }

// Ship is the group-commit hook: it replicates one fsynced group to
// the backup and witnesses the ack to the CAS, returning only when the
// group is either replicated-and-witnessed or the stream is durably
// degraded. It runs on the log's leader goroutine — for the WAL, with
// the DB lock held — so everything here must stay off this node's own
// commit path.
func (s *Shipper) Ship(entries []durlog.Entry) {
	if len(entries) == 0 {
		return
	}
	if s.stopped.Load() {
		return
	}
	s.groups.Inc()
	if s.degraded {
		s.skipped.Inc()
		return
	}
	id, ok := s.cfg.BackupOf()
	if !ok || id == s.cfg.Primary {
		if !s.bound {
			// Never had a backup (single node, replication-free slot
			// layout): nothing was ever witnessed, so nothing
			// constrains later promotion.
			s.noBackups.Inc()
			s.skipped.Inc()
			return
		}
		// The stream had a live mirror and lost its assignment (a
		// promotion consumed the backup): stabilized groups are about
		// to outrun that mirror, so it must not remain promotable.
		s.degrade()
		return
	}
	if s.bound && id != s.target {
		// The backup assignment changed mid-stream. The new target has
		// no mirror prefix to extend (resync is out of scope), so the
		// stream degrades rather than fork.
		s.degrade()
		return
	}
	addr, ok := s.cfg.AddrOf(id)
	if !ok {
		s.degrade()
		return
	}

	req := s.chain.Next(entries)
	payload := req.Encode()

	// Under bursty loss or delay an immediate re-send tends to die the
	// same death, so re-sends climb the retry ladder — capped lower than
	// its default, because every rung is waited out on the log's
	// group-commit leader and a failed attempt has spent a full Timeout
	// there already.
	for retry := s.cfg.Endpoint.Retry(shipAttempts, erpc.RetryBase, shipRetryCap, nil); ; {
		md := seal.MsgMetadata{OpType: uint32(twopc.ReqReplShip)}
		resp, err := erpc.Call(s.cfg.Endpoint, addr, twopc.ReqReplShip, md, payload, s.cfg.Timeout, nil)
		if err != nil && s.stopped.Load() {
			break // teardown raced the ship; see the stopped check below
		}
		if err != nil || len(resp) != 8 || binary.LittleEndian.Uint64(resp) < req.Seq {
			if !retry.Next() {
				break
			}
			continue
		}
		// Witness BEFORE returning: the caller stabilizes the group's
		// counter right after this hook, and the promotion gate is only
		// sound if the witness covers every stabilized group.
		s.cfg.Witness.ReplWitness(s.cfg.Primary, s.cfg.Stream, req.Seq, req.Digest)
		s.chain.Acked(req)
		s.target, s.bound = id, true
		s.acked.Inc()
		s.seqGauge.Set(int64(req.Seq))
		return
	}
	if s.stopped.Load() {
		// The node is tearing down: the failure is the teardown's, not
		// the stream's, and the group's ack can no longer reach anyone
		// (see Node.stopShippers for why skipping is sound here).
		s.skipped.Inc()
		return
	}
	s.degrade()
}

// degrade durably marks the stream unpromotable before the caller
// stabilizes the unreplicated group.
func (s *Shipper) degrade() {
	s.degraded = true
	s.cfg.Witness.ReplDegrade(s.cfg.Primary, s.cfg.Stream)
	s.failed.Inc()
}
