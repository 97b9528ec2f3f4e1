package twopc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/txn"
)

// Participant executes the local halves of distributed transactions:
// every operation runs in a private single-node pessimistic transaction
// (§V-A: "Participants create local private Txs through TREATY's
// single-node transactional KV store"); prepare durably logs the write
// set and stabilizes before ACKing; commit/abort resolve it.
//
// Request handlers run on fibers from the node's userland scheduler, so
// lock waits and stabilization waits park the fiber instead of blocking
// the RPC event loop or a scheduler worker (§VII-C).
type Participant struct {
	mgr   *txn.Manager
	ep    *erpc.Endpoint
	sched *fibers.Scheduler

	// nodeID + shard gate operations by route: a request must carry the
	// participant's current shard-map epoch and address a slot this node
	// owns, or it is rejected retriably. Shard may be nil (single-node
	// rigs and unit tests skip routing enforcement).
	nodeID  uint64
	shard   *shardmap.Holder
	refresh func()
	// coord is this node's coordinator, which answers a recovered
	// transaction's status query by a call (set by NewCoordinator).
	coord *Coordinator

	mu     sync.Mutex
	active map[lsm.TxID]*activeTxn
	// fenced slots refuse new operations while their key range streams to
	// the migration destination (value: fence generation, informational).
	fenced map[int]struct{}

	// idleTimeout reclaims transactions abandoned by dead coordinators.
	idleTimeout time.Duration
	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
	stopOnce    sync.Once

	// reg holds the counters step's effects name; the shard-map gate and
	// migration count their rejections and chunks.
	reg                                    *obs.Registry
	staleEpoch, fenceRejects, ingestChunks *obs.Counter
}

// activeTxn is one in-flight local transaction.
type activeTxn struct {
	mu    sync.Mutex
	local *txn.Txn
	id    lsm.TxID
	// slots records the hash slots this transaction has touched here
	// (guarded by the participant's mu, read by SlotActive so migration
	// drains wait for in-flight transactions on the migrating slot).
	slots map[int]struct{}
	// prepared is atomic: run stores it under at.mu, but the janitor and
	// recovery scans read it under p.mu only — taking at.mu there would
	// invert the at.mu → p.mu order the handlers use via drop().
	prepared atomic.Bool
	last     time.Time
}

// lock takes at.mu for the handler on fiber f and binds f as the local
// transaction's waiter. Contended, it is taken parked: a parked holder (a
// prepare, across its counter round) cannot resume on a blocked worker.
func (at *activeTxn) lock(f *fibers.Fiber) {
	if !at.mu.TryLock() {
		f.Park(at.mu.Lock)
	}
	at.local.SetFiber(f)
}

// state reads the part's protocol state; the caller holds at.mu.
func (at *activeTxn) state() txState {
	if at.prepared.Load() {
		return txState{phase: pPrepared}
	}
	return txState{phase: pActive, readOnly: at.local.ReadOnly()}
}

// ParticipantConfig configures a Participant.
type ParticipantConfig struct {
	// Manager is the node's transaction manager.
	Manager *txn.Manager
	// Endpoint serves the 2PC request types.
	Endpoint *erpc.Endpoint
	// Scheduler runs request handlers as fibers.
	Scheduler *fibers.Scheduler
	// NodeID is this node's member id in the shard map.
	NodeID uint64
	// Shard, when non-nil, enables route enforcement: operations must
	// carry the current shard-map epoch and address a slot this node
	// owns. Nil disables enforcement (unit rigs without a shard map).
	Shard *shardmap.Holder
	// Refresh, when non-nil, refetches the shard map once before
	// rejecting an operation whose epoch is AHEAD of this node's view
	// (the sender may have seen a newer map first).
	Refresh func()
	// IdleTimeout aborts transactions with no activity (0 = 30s).
	IdleTimeout time.Duration
	// Metrics, when non-nil, exports participant counters under
	// "twopc.part.*".
	Metrics *obs.Registry
}

// NewParticipant registers the participant's handlers on the endpoint.
func NewParticipant(cfg ParticipantConfig) *Participant {
	p := &Participant{
		mgr:          cfg.Manager,
		ep:           cfg.Endpoint,
		sched:        cfg.Scheduler,
		nodeID:       cfg.NodeID,
		shard:        cfg.Shard,
		refresh:      cfg.Refresh,
		active:       make(map[lsm.TxID]*activeTxn),
		fenced:       make(map[int]struct{}),
		idleTimeout:  cfg.IdleTimeout,
		janitorStop:  make(chan struct{}),
		reg:          cfg.Metrics,
		staleEpoch:   cfg.Metrics.Counter("shardmap.stale_epoch_rejected"),
		fenceRejects: cfg.Metrics.Counter("shardmap.fence_rejected"),
		ingestChunks: cfg.Metrics.Counter("shardmap.ingest_chunks"),
	}
	if p.idleTimeout == 0 {
		p.idleTimeout = 30 * time.Second
	}
	cfg.Metrics.GaugeFunc("twopc.part.active", func() int64 {
		return int64(p.ActiveCount())
	})
	p.ep.Register(ReqTxnGet, OnFiber(p.sched, p.handleOp))
	p.ep.Register(ReqTxnPut, OnFiber(p.sched, p.handleOp))
	p.ep.Register(ReqTxnDelete, OnFiber(p.sched, p.handleOp))
	p.ep.Register(ReqPrepare, OnFiber(p.sched, p.handleControl))
	p.ep.Register(ReqCommit, OnFiber(p.sched, p.handleControl))
	p.ep.Register(ReqAbort, OnFiber(p.sched, p.handleControl))
	p.ep.Register(ReqCommitOnePhase, OnFiber(p.sched, p.handleControl))
	p.ep.Register(ReqSlotIngest, OnFiber(p.sched, p.handleSlotIngest))
	p.janitorWG.Add(1)
	go p.janitor()
	return p
}

// stopJanitor halts the janitor goroutine exactly once.
func (p *Participant) stopJanitor() {
	p.stopOnce.Do(func() { close(p.janitorStop) })
	p.janitorWG.Wait()
}

// Abandon stops the janitor without touching in-flight transactions —
// the crash path: memory is dropped as-is, nothing is rolled back, no
// goroutine keeps mutating state that a restarted instance now owns.
func (p *Participant) Abandon() {
	p.stopJanitor()
}

// Close stops the janitor and aborts in-flight transactions.
func (p *Participant) Close() {
	p.stopJanitor()
	p.mu.Lock()
	actives := make([]*activeTxn, 0, len(p.active))
	for _, at := range p.active {
		actives = append(actives, at)
	}
	p.active = make(map[lsm.TxID]*activeTxn)
	p.mu.Unlock()
	for _, at := range actives {
		at.mu.Lock()
		_ = at.local.Rollback()
		at.mu.Unlock()
	}
}

// OnFiber adapts a handler to run as a fiber on the node's userland
// scheduler — one fiber per request (§VII-C) — so its lock, RPC and
// stabilization waits park instead of blocking the RPC event loop.
func OnFiber(sched *fibers.Scheduler, h func(*fibers.Fiber, *erpc.Request)) erpc.Handler {
	return func(req *erpc.Request) {
		if _, err := sched.Go(func(f *fibers.Fiber) { h(f, req) }); err != nil {
			req.ReplyError(err.Error())
		}
	}
}

// errTxnReclaimed answers an operation that may not open a part for an id
// this participant does not know: the janitor reclaimed its part, or the
// participant restarted. The coordinator sees the error, and the eventual
// prepare votes no.
const errTxnReclaimed = "twopc: transaction reclaimed or lost to a restart"

// find returns the active transaction for id, creating one if create is
// set (an op carrying flagOpensPart).
func (p *Participant) find(id lsm.TxID, create bool) *activeTxn {
	p.mu.Lock()
	defer p.mu.Unlock()
	at, ok := p.active[id]
	if !ok && create {
		at = &activeTxn{
			local: p.mgr.BeginPessimistic(nil),
			id:    id,
			last:  time.Now(),
		}
		p.active[id] = at
	}
	if at != nil {
		at.last = time.Now()
	}
	return at
}

// drop removes a finished transaction.
func (p *Participant) drop(id lsm.TxID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.active, id)
}

// checkRoute gates a keyed operation by the participant's routing view:
// the key's slot must not be fenced for migration, the operation must
// carry this node's current shard-map epoch, and this node must own the
// slot. Rejections are retriable — the sender refetches the shard map
// and retries. A keyed operation always carries its view's epoch, so an
// unversioned one (epoch 0) is rejected like any other stale epoch.
// Prepare/commit/abort are NOT gated: in-flight transactions drain
// across an epoch flip; only new keyed operations are redirected.
func (p *Participant) checkRoute(key []byte, md seal.MsgMetadata) (int, error) {
	slot := shardmap.SlotOf(key)
	if p.shard == nil {
		return slot, nil
	}
	view := p.shard.View()
	if view == nil {
		return slot, nil
	}
	p.mu.Lock()
	_, isFenced := p.fenced[slot]
	p.mu.Unlock()
	if isFenced {
		p.fenceRejects.Inc()
		return slot, fmt.Errorf("%s: slot %d", slotFencedMsg, slot)
	}
	if md.Epoch != view.Epoch {
		// A sender ahead of this node may have seen the new map first:
		// refresh once and re-check before rejecting.
		if md.Epoch > view.Epoch && p.refresh != nil {
			p.refresh()
			view = p.shard.View()
		}
		if md.Epoch != view.Epoch {
			p.staleEpoch.Inc()
			return slot, fmt.Errorf("%s: op at epoch %d, node at %d",
				wrongEpochMsg, md.Epoch, view.Epoch)
		}
	}
	if owner := view.SlotOwner(slot); owner != p.nodeID {
		p.staleEpoch.Inc()
		return slot, fmt.Errorf("%s: slot %d owned by node %d, not node %d",
			wrongEpochMsg, slot, owner, p.nodeID)
	}
	return slot, nil
}

// markSlot records that at touched slot on this node (drain accounting
// for migrations).
func (p *Participant) markSlot(at *activeTxn, slot int) {
	p.mu.Lock()
	if at.slots == nil {
		at.slots = make(map[int]struct{}, 2)
	}
	at.slots[slot] = struct{}{}
	p.mu.Unlock()
}

// FreezeSlot fences a slot: new keyed operations on it are rejected
// retriably until UnfreezeSlot. Migration fences the source slot before
// streaming its key range so the streamed snapshot cannot go stale.
func (p *Participant) FreezeSlot(slot int) {
	p.mu.Lock()
	p.fenced[slot] = struct{}{}
	p.mu.Unlock()
}

// UnfreezeSlot lifts a migration fence.
func (p *Participant) UnfreezeSlot(slot int) {
	p.mu.Lock()
	delete(p.fenced, slot)
	p.mu.Unlock()
}

// SlotActive counts in-flight transactions that have touched slot here.
// After fencing, migration waits for this to reach zero before reading
// the slot's snapshot (the drain step).
func (p *Participant) SlotActive(slot int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, at := range p.active {
		if _, ok := at.slots[slot]; ok {
			n++
		}
	}
	return n
}

// SplitKV cuts a keyed request's payload into key and value by the
// lengths its metadata declares. Lengths that overrun the payload are
// rejected, never clamped: a malformed frame must neither panic the
// handler nor be executed against a key the sender did not name.
func SplitKV(req *erpc.Request) (key, value []byte, ok bool) {
	kl, vl := uint64(req.Meta.KeyLen), uint64(req.Meta.ValueLen)
	if kl+vl > uint64(len(req.Payload)) {
		return nil, nil, false
	}
	return req.Payload[:kl], req.Payload[kl : kl+vl], true
}

// handleOp serves a keyed operation that arrived as a request: it checks
// the sizes the frame declares and replies with op's result.
func (p *Participant) handleOp(f *fibers.Fiber, req *erpc.Request) {
	key, value, ok := SplitKV(req)
	if !ok {
		req.ReplyError("twopc: malformed request sizes")
		return
	}
	reply, err := p.op(f, req.Type(), req.Meta, key, value)
	respond(req, reply, err)
}

// respond answers req with a body's result.
func respond(req *erpc.Request, reply []byte, err error) {
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	req.Reply(reply)
}

// op executes one keyed operation — get, put or delete, told apart by
// reqType — inside the transaction's private local transaction, opening
// it on first use. It is the one body of a keyed operation: handleOp runs
// it for a request off the wire, and this node's coordinator calls it
// directly for a key the node owns (DistTxn.call). The checks every
// operation must pass are stated once, here: a route this node serves at
// the sender's epoch (checkRoute), and a part this participant holds or
// the op may open (find).
func (p *Participant) op(f *fibers.Fiber, reqType uint8, md seal.MsgMetadata, key, value []byte) ([]byte, error) {
	slot, err := p.checkRoute(key, md)
	if err != nil {
		return nil, err
	}
	at := p.find(globalTxID(md.NodeID, md.TxID), md.Flags&flagOpensPart != 0)
	if at == nil {
		return nil, errors.New(errTxnReclaimed)
	}
	p.markSlot(at, slot)
	var reply []byte
	at.lock(f)
	switch reqType {
	case ReqTxnGet:
		var v []byte
		var found bool
		if v, found, err = at.local.Get(key); found {
			reply = append([]byte{GetFound}, v...)
		} else {
			reply = []byte{GetNotFound}
		}
	case ReqTxnPut:
		err = at.local.Put(key, value)
	case ReqTxnDelete:
		err = at.local.Delete(key)
	}
	at.mu.Unlock()
	return reply, err
}

// handleControl serves a control message that arrived as a request: the
// payload names the transaction, and the reply is control's.
func (p *Participant) handleControl(f *fibers.Fiber, req *erpc.Request) {
	id, ok := payloadTxID(req)
	if !ok {
		req.ReplyError("twopc: malformed transaction id")
		return
	}
	reply, err := p.control(f, req.Type(), id)
	respond(req, reply, err)
}

// control applies one control message — prepare, commit, one-phase
// commit or abort, told apart by reqType — to transaction id, the twin of
// op: handleControl runs it for a request off the wire, this node's
// coordinator for its own leg of a fan-out, and ResolveRecovered for a
// recovered decision. It steps the part under its lock and stores the
// state step leaves: a prepared part is marked, a finished one dropped.
func (p *Participant) control(f *fibers.Fiber, reqType uint8, id lsm.TxID) ([]byte, error) {
	s, at := txState{phase: pUnknown}, p.find(id, false)
	if at != nil {
		at.lock(f)
		defer at.mu.Unlock()
		s = at.state()
	}
	p.run(at, id, &s, &event{kind: evControl, req: reqType})
	switch {
	case at == nil:
	case s.phase == pPrepared:
		at.prepared.Store(true)
	case s.phase == pDone:
		p.drop(id)
	}
	return s.resp, s.err
}

// run is the participant's interpreter: it steps s by ev and performs
// the effects in order, feeding a local effect's completion back when it
// is the last, until s needs nothing more.
func (p *Participant) run(at *activeTxn, id lsm.TxID, s *txState, ev *event) {
	var buf [maxEffects]effect
	for more := true; more; {
		more = false
		for _, e := range step(s, ev, buf[:0]) {
			switch more = e.kind == fxLocal; e.kind {
			case fxLocal:
				err := p.local(at, e.code, id)
				*ev = event{kind: evDone, err: err, finished: errors.Is(err, txn.ErrTxnDone)}
			case fxCount:
				p.reg.Counter(e.name).Inc()
			}
		}
	}
}

// local performs a local effect: the one engine call of each kind on a
// part's local transaction. Prepare returns once its entry is stabilized
// (§V-A step 8; it waits parked, and one counter round covers every
// concurrent prepare, §VI); CommitOnePhase once the write set is a
// stabilized WAL record.
func (p *Participant) local(at *activeTxn, op uint8, id lsm.TxID) error {
	switch op {
	case ReqPrepare:
		return at.local.Prepare(id)
	case ReqCommit:
		return at.local.CommitPrepared(id)
	case ReqCommitOnePhase:
		return at.local.CommitOnePhase()
	case ReqAbort:
		return at.local.AbortPrepared(id)
	}
	return at.local.Rollback()
}

// janitor reclaims transactions whose coordinator went silent: each tick
// steps every part idle past the timeout (step exempts prepared parts).
func (p *Participant) janitor() {
	defer p.janitorWG.Done()
	ticker := time.NewTicker(p.idleTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-p.janitorStop:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-p.idleTimeout)
		p.mu.Lock()
		var idle []*activeTxn
		for _, at := range p.active {
			// A held at.mu means in use, not idle: a prepare holds it
			// across a stabilization that may outlast the idle timeout.
			if at.last.Before(cutoff) && at.mu.TryLock() {
				idle = append(idle, at)
			}
		}
		p.mu.Unlock()
		for _, at := range idle {
			s := at.state()
			if p.run(at, at.id, &s, &event{kind: evTick}); s.phase == pDone {
				p.drop(at.id)
			}
			at.mu.Unlock()
		}
	}
}

// RestorePrepared re-initializes prepared transactions found in the WAL
// at recovery (locks re-acquired, state prepared) so the coordinator's
// decision can be applied when it arrives.
func (p *Participant) RestorePrepared(pending []lsm.PreparedTx) error {
	for _, pt := range pending {
		local, err := p.mgr.RestorePrepared(pt.Batch, nil)
		if err != nil {
			return fmt.Errorf("twopc: restoring %x: %w", pt.ID[:4], err)
		}
		at := &activeTxn{local: local, id: pt.ID, last: time.Now()}
		s := txState{phase: pUnknown}
		p.run(at, pt.ID, &s, &event{kind: evRestored})
		at.prepared.Store(s.phase == pPrepared)
		p.mu.Lock()
		p.active[pt.ID] = at
		p.mu.Unlock()
	}
	return nil
}

// ResolveRecovered asks each recovered transaction's coordinator for its
// decision and applies it ("For each prepared Tx, the node communicates
// with the Tx's coordinator for either committing or aborting", §VI).
// addrOf maps a coordinator node id to its RPC address. A coordinator
// that does not answer or reports pending is re-asked on the retry
// ladder, up to 20 times: longer rungs than a lost datagram's
// (erpc.RetryBase), because what is waited out here is a coordinator
// still restarting or partitioned.
func (p *Participant) ResolveRecovered(addrOf func(nodeID uint64) string) error {
	p.mu.Lock()
	var prepared []lsm.TxID
	for id, at := range p.active {
		if at.prepared.Load() {
			prepared = append(prepared, id)
		}
	}
	p.mu.Unlock()

	for _, id := range prepared {
		coordID, _ := splitTxID(id)
		addr := addrOf(coordID)
		for retry := p.ep.Retry(20, 50*time.Millisecond, 800*time.Millisecond, nil); ; {
			if status := p.status(addr, id); status == StatusCommit || status == StatusAbort {
				req := ReqAbort // the decision's control message
				if status == StatusCommit {
					req = ReqCommit
				}
				if _, err := p.control(nil, req, id); err != nil {
					return err
				}
				break
			}
			// Unanswered, or pending (coordinator recovery will push a
			// decision): the ladder paces the re-ask.
			if !retry.Next() {
				return fmt.Errorf("twopc: could not resolve recovered tx %x with coordinator %d", id[:4], coordID)
			}
		}
	}
	return nil
}

// status asks the coordinator at addr for id's outcome, reading an
// unanswered query as pending. When addr is this node's own (after a
// restart, or the dead primary's address once this node is promoted),
// it is a call into this node's coordinator.
func (p *Participant) status(addr string, id lsm.TxID) uint8 {
	if addr == p.ep.LocalAddr() {
		return p.coord.status(id)
	}
	_, seq := splitTxID(id)
	md := seal.MsgMetadata{TxID: seq, OpType: uint32(ReqTxStatus)}
	resp, err := erpc.Call(p.ep, addr, ReqTxStatus, md, id[:], 2*time.Second, nil)
	if err != nil || len(resp) == 0 {
		return StatusPending
	}
	return resp[0]
}

// ActiveCount reports in-flight transactions (test hook).
func (p *Participant) ActiveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.active)
}
