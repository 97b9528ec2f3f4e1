package core

import (
	"errors"
	"fmt"

	"treaty/internal/attest"
	"treaty/internal/repl"
)

// Failover: a backup taking over a dead primary's slots. The takeover is
// gated by a CAS promotion certificate — the trusted-counter-anchored
// proof that this backup's mirror covers every commit group any
// stabilized counter value can reference — and then replays the mirror
// before the epoch flip, the way crash recovery replays a node's logs:
//
//	WAL mirror → engine state, through lsm's WAL fold (DB.ApplyLog).
//	  Committed batches re-apply; prepares without decisions restore as
//	  prepared transactions, exactly as a local reboot would.
//	Clog mirror → the coordinator's status table (AdoptRecovered): the
//	  dead primary's stable commit decisions. It runs before the flip
//	  aliases the primary's address to ours, so no status query routed
//	  here can be answered abort for one of them.
//
// After the flip, the peers are told to resolve their prepared parts of
// the primary's transactions by asking us, and our own prepared parts
// resolve with their coordinators. A decision absent from the mirror was
// never stabilized on the primary, so it was never acknowledged anywhere
// — presumed abort stays sound across the takeover.

// BuildPromotionRequest assembles this node's mirror evidence for taking
// over primary: one claim per CAS-witnessed stream, carrying how far the
// mirror reaches and its digest at the witnessed position.
func (n *Node) BuildPromotionRequest(primary uint64) *attest.PromotionRequest {
	req := &attest.PromotionRequest{Primary: primary, Backup: n.cfg.ID}
	for _, w := range n.cfg.CAS.ReplWitnesses(primary) {
		cl := attest.StreamClaim{Stream: w.Stream}
		if n.backup != nil {
			if seq, _, ok := n.backup.StreamState(primary, w.Stream); ok {
				cl.Seq = seq
			}
			if d, ok := n.backup.DigestAt(primary, w.Stream, w.Seq); ok {
				cl.DigestAtWitness = d
				cl.HaveBoundary = true
			}
		}
		req.Streams = append(req.Streams, cl)
	}
	return req
}

// notePromotionReject maps a promotion failure to its rejection counter,
// mirroring how stale shard maps fire shardmap.stale_epoch_rejected.
func (n *Node) notePromotionReject(err error) {
	switch {
	case errors.Is(err, attest.ErrReplicaRolledBack):
		n.reg.Counter("repl.rollback_rejected").Inc()
	case errors.Is(err, attest.ErrReplicaForked):
		n.reg.Counter("repl.fork_rejected").Inc()
	case errors.Is(err, attest.ErrPromotionReplayed):
		n.reg.Counter("repl.cert_replay_rejected").Inc()
	}
}

// SubmitPromotion asks the CAS to certify this node as primary's
// successor; rollback/fork rejections fire their counters.
func (n *Node) SubmitPromotion(req *attest.PromotionRequest) (*attest.PromotionCert, error) {
	cert, err := n.cfg.CAS.IssuePromotionCert(req)
	if err != nil {
		n.notePromotionReject(err)
		return nil, err
	}
	return cert, nil
}

// InstallPromotionCert consumes a certificate: the CAS installs the
// successor epoch and this node adopts it. Replayed certificates fire
// repl.cert_replay_rejected.
func (n *Node) InstallPromotionCert(cert *attest.PromotionCert) error {
	m, err := n.cfg.CAS.InstallPromotion(cert)
	if err != nil {
		n.notePromotionReject(err)
		return err
	}
	return n.ApplyShardMap(m)
}

// Promote performs the full takeover of a dead primary: certificate,
// mirror replay, epoch flip, and resolution of the primary's in-doubt
// 2PC transactions. The primary must be dead — Treaty's failure model
// (crash-stop, no rejoin under the old identity) is what makes serving
// its slots from here safe.
func (n *Node) Promote(primary uint64) error {
	if n.backup == nil {
		return errors.New("core: node is not replicating")
	}
	req := n.BuildPromotionRequest(primary)
	cert, err := n.SubmitPromotion(req)
	if err != nil {
		return fmt.Errorf("core: promotion refused: %w", err)
	}
	undecided, err := n.db.ApplyLog(n.backup.Entries(primary, repl.StreamWAL))
	if err != nil {
		return fmt.Errorf("core: promoting %d: replaying WAL mirror: %w", primary, err)
	}
	if err := n.part.RestorePrepared(undecided); err != nil {
		return fmt.Errorf("core: promoting %d: restoring prepared: %w", primary, err)
	}
	if err := n.coord.AdoptRecovered(n.backup.Entries(primary, repl.StreamClog)); err != nil {
		return fmt.Errorf("core: promoting %d: adopting clog: %w", primary, err)
	}

	// Epoch flip: from here the dead primary's slots — and its address —
	// are ours.
	if err := n.InstallPromotionCert(cert); err != nil {
		return fmt.Errorf("core: promotion install: %w", err)
	}
	n.coord.Resolve(primary)
	if err := n.part.ResolveRecovered(); err != nil {
		return fmt.Errorf("core: promoting %d: resolving prepared: %w", primary, err)
	}
	n.reg.Counter("repl.promotions").Inc()
	return nil
}

// Promote fails over a dead (crashed) node: its recorded backup builds
// the promotion evidence, obtains the CAS certificate, replays its
// mirror, and takes over the slots; every live node then refreshes to
// the successor epoch. Returns the promoted node.
func (c *Cluster) Promote(dead int) (*Node, error) {
	if c.nodes[dead] != nil {
		return nil, fmt.Errorf("core: node %d is still live; crash it before promoting", dead)
	}
	deadID := c.nodeCfg[dead].ID
	backupID, ok := c.cas.ShardMap().BackupOf(deadID)
	if !ok {
		return nil, fmt.Errorf("core: node %d has no recorded backup", dead)
	}
	var successor *Node
	for _, n := range c.nodes {
		if n != nil && n.ID() == backupID {
			successor = n
			break
		}
	}
	if successor == nil {
		return nil, fmt.Errorf("core: backup node %d is not live", backupID)
	}
	if err := successor.Promote(deadID); err != nil {
		return nil, err
	}
	c.RefreshShardMaps()
	return successor, nil
}
