package twopc

import (
	"encoding/binary"
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
	// coord is this node's coordinator, which answers a status query for
	// one of its own transactions by a call (set by NewCoordinator).
	coord *Coordinator

	mu     sync.Mutex
	active map[partKey]*activeTxn
	// fenced slots refuse new operations while their key range streams to
	// the migration destination (value: fence generation, informational).
	fenced map[int]struct{}

	// idleTimeout reclaims transactions abandoned by dead coordinators.
	idleTimeout time.Duration
	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
	stopOnce    sync.Once

	// reg holds the counters step's effects name; the shard-map gate and
	// migration count their rejections and chunks, and resolve the parts a
	// status query decided.
	reg                                              *obs.Registry
	staleEpoch, fenceRejects, ingestChunks, resolved *obs.Counter
}

// partKey names a part: its transaction's global id, and whether it is
// the twin of this node's own part of that transaction — a dead
// primary's prepared part, restored from its WAL mirror at promotion.
// Every decision for the id settles both.
type partKey struct {
	id   lsm.TxID
	twin bool
}

// activeTxn is one in-flight local transaction.
type activeTxn struct {
	mu    sync.Mutex
	local *txn.Txn
	key   partKey
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
		active:       make(map[partKey]*activeTxn),
		fenced:       make(map[int]struct{}),
		idleTimeout:  cfg.IdleTimeout,
		janitorStop:  make(chan struct{}),
		reg:          cfg.Metrics,
		staleEpoch:   cfg.Metrics.Counter("shardmap.stale_epoch_rejected"),
		fenceRejects: cfg.Metrics.Counter("shardmap.fence_rejected"),
		ingestChunks: cfg.Metrics.Counter("shardmap.ingest_chunks"),
		resolved:     cfg.Metrics.Counter("twopc.part.resolved"),
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
	p.ep.Register(ReqResolve, OnFiber(p.sched, p.handleResolve))
	p.janitorWG.Add(1)
	go p.janitor()
	return p
}

// Abandon stops the janitor, once, without touching in-flight
// transactions — the crash path: memory is dropped as-is, nothing is
// rolled back, no goroutine keeps mutating state that a restarted instance
// now owns.
func (p *Participant) Abandon() {
	p.stopOnce.Do(func() { close(p.janitorStop) })
	p.janitorWG.Wait()
}

// Close stops the janitor and aborts in-flight transactions.
func (p *Participant) Close() {
	p.Abandon()
	p.mu.Lock()
	actives := make([]*activeTxn, 0, len(p.active))
	for _, at := range p.active {
		actives = append(actives, at)
	}
	p.active = make(map[partKey]*activeTxn)
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

// find returns the part key names, creating one if create is set (an op
// carrying flagOpensPart).
func (p *Participant) find(key partKey, create bool) *activeTxn {
	p.mu.Lock()
	defer p.mu.Unlock()
	at, ok := p.active[key]
	if !ok && create {
		at = &activeTxn{
			local: p.mgr.BeginPessimistic(nil),
			key:   key,
			last:  time.Now(),
		}
		p.active[key] = at
	}
	if at != nil {
		at.last = time.Now()
	}
	return at
}

// drop removes a finished part.
func (p *Participant) drop(key partKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.active, key)
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
	at := p.find(partKey{id: globalTxID(md.NodeID, md.TxID)}, md.Flags&flagOpensPart != 0)
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
// coordinator for its own leg of a fan-out, and resolve for a decision a
// status query returned. A decision settles the part's twin too.
func (p *Participant) control(f *fibers.Fiber, reqType uint8, id lsm.TxID) ([]byte, error) {
	resp, err := p.apply(f, reqType, id, p.find(partKey{id: id}, false))
	if reqType == ReqCommit || reqType == ReqAbort {
		if twin := p.find(partKey{id: id, twin: true}, false); twin != nil {
			if _, twinErr := p.apply(f, reqType, id, twin); err == nil {
				err = twinErr
			}
		}
	}
	return resp, err
}

// apply steps one part (nil: none) by a control message under its lock
// and stores the state step leaves: a prepared part is marked, a
// finished one dropped.
func (p *Participant) apply(f *fibers.Fiber, reqType uint8, id lsm.TxID, at *activeTxn) ([]byte, error) {
	s := txState{phase: pUnknown}
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
		p.drop(at.key)
	}
	return s.resp, s.err
}

// run is the participant's interpreter: it steps s by ev and performs
// the effects in order, feeding a local effect's completion back when it
// is the last, until s needs nothing more. It reports a status query
// step asked for, which the caller sends once it holds no lock.
func (p *Participant) run(at *activeTxn, id lsm.TxID, s *txState, ev *event) (query bool) {
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
			case fxQuery:
				query = true
			}
		}
	}
	return query
}

// local performs a local effect: the one engine call of each kind on a
// part's local transaction. Prepare returns once its entry is stabilized
// (§V-A step 8; it waits parked, and one counter round covers every
// concurrent prepare, §VI); a sole writer's Commit once the write set is
// a stabilized WAL record.
func (p *Participant) local(at *activeTxn, op uint8, id lsm.TxID) error {
	switch op {
	case ReqPrepare:
		return at.local.Prepare(id)
	case ReqCommit:
		return at.local.CommitPrepared(id)
	case ReqCommitOnePhase:
		return at.local.Commit()
	case ReqAbort:
		return at.local.AbortPrepared(id)
	}
	return at.local.Rollback()
}

// janitor steps every part idle past the timeout: an open part whose
// coordinator went silent is reclaimed, and a prepared one asks its
// coordinator for the decision, on a fiber and outside the part's lock,
// once per idle timeout (§VI's status query, for a push that never came).
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
				at.last = time.Now()
				idle = append(idle, at)
			}
		}
		p.mu.Unlock()
		for _, at := range idle {
			s := at.state()
			query := p.run(at, at.key.id, &s, &event{kind: evTick})
			if s.phase == pDone {
				p.drop(at.key)
			}
			at.mu.Unlock()
			if id := at.key.id; query {
				coordID, _ := splitTxID(id)
				// A stopped scheduler is a stopping node; a failed or
				// pending query leaves the part to the next tick.
				_, _ = p.sched.Go(func(f *fibers.Fiber) { _, _ = p.resolve(f, p.addrOf(coordID, 0), id) })
			}
		}
	}
}

// RestorePrepared re-initializes prepared transactions found in the WAL
// at recovery, or in a dead primary's WAL mirror at promotion (locks
// re-acquired, state prepared), so the coordinator's decision can be
// applied when it arrives or is asked for. A part restored under an id
// this participant already holds a part of is that part's twin; a third
// part under one id is refused.
func (p *Participant) RestorePrepared(pending []lsm.PreparedTx) error {
	for _, pt := range pending {
		p.mu.Lock()
		key := partKey{id: pt.ID, twin: p.active[partKey{id: pt.ID}] != nil}
		taken := p.active[key] != nil
		p.mu.Unlock()
		if taken {
			return fmt.Errorf("twopc: restoring %x: a third part under one id", pt.ID[:4])
		}
		local, err := p.mgr.RestorePrepared(pt.Batch, nil)
		if err != nil {
			return fmt.Errorf("twopc: restoring %x: %w", pt.ID[:4], err)
		}
		at := &activeTxn{local: local, key: key, last: time.Now()}
		s := txState{phase: pUnknown}
		p.run(at, pt.ID, &s, &event{kind: evRestored})
		at.prepared.Store(s.phase == pPrepared)
		p.mu.Lock()
		p.active[key] = at
		p.mu.Unlock()
	}
	return nil
}

// inDoubt returns the ids of the prepared parts whose coordinator match
// accepts.
func (p *Participant) inDoubt(match func(coordID uint64) bool) map[lsm.TxID]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make(map[lsm.TxID]bool)
	for key, at := range p.active {
		if coordID, _ := splitTxID(key.id); at.prepared.Load() && match(coordID) {
			ids[key.id] = true
		}
	}
	return ids
}

// ResolveRecovered asks each prepared transaction's coordinator for its
// decision and applies it ("For each prepared Tx, the node communicates
// with the Tx's coordinator for either committing or aborting", §VI). A
// coordinator that does not answer or reports pending is re-asked on the
// retry ladder, up to 20 times: longer rungs than a lost datagram's
// (erpc.RetryBase), because what is waited out here is a coordinator
// still restarting or partitioned.
func (p *Participant) ResolveRecovered() error {
	for id := range p.inDoubt(func(uint64) bool { return true }) {
		coordID, _ := splitTxID(id)
		for retry := p.ep.Retry(20, 50*time.Millisecond, 800*time.Millisecond, nil); ; {
			if decided, err := p.resolve(nil, p.addrOf(coordID, 0), id); decided || err != nil {
				if err != nil {
					return err
				}
				break
			}
			if !retry.Next() {
				return fmt.Errorf("twopc: could not resolve recovered tx %x with coordinator %d", id[:4], coordID)
			}
		}
	}
	return nil
}

// handleResolve serves a ReqResolve notice: it resolves, once each, the
// prepared parts of the coordinator the notice names by asking that
// coordinator's address in the shard map (refreshed for a newer epoch),
// never the notice's source, which no MAC covers. Then it replies. A part
// answered pending, or not at all, is left to the janitor.
func (p *Participant) handleResolve(f *fibers.Fiber, req *erpc.Request) {
	if len(req.Payload) < 8 {
		req.ReplyError("twopc: short resolve notice")
		return
	}
	named := binary.LittleEndian.Uint64(req.Payload)
	addr := p.addrOf(named, req.Meta.Epoch)
	var errs []error
	for id := range p.inDoubt(func(coordID uint64) bool { return coordID == named }) {
		_, err := p.resolve(f, addr, id)
		errs = append(errs, err)
	}
	respond(req, nil, errors.Join(errs...))
}

// resolve is the one query path of an in-doubt part: it asks id's
// coordinator at addr for the decision and, when the answer is one,
// applies it as that decision's control message. It reports whether the
// answer decided; pending or no answer changes nothing.
func (p *Participant) resolve(f *fibers.Fiber, addr string, id lsm.TxID) (decided bool, err error) {
	req := ReqAbort // the decision's control message
	switch p.status(f, addr, id) {
	case StatusCommit:
		req = ReqCommit
	case StatusAbort:
	default:
		return false, nil
	}
	if _, err = p.control(f, req, id); err == nil {
		p.resolved.Inc()
	}
	return true, err
}

// status asks the coordinator at addr for id's outcome on fiber f (nil: a
// goroutine), reading an unanswered query as pending. When addr is this
// node's own (after a restart, or the dead primary's address once this
// node is promoted), it is a call into this node's coordinator.
func (p *Participant) status(f *fibers.Fiber, addr string, id lsm.TxID) uint8 {
	switch addr {
	case "":
		return StatusPending
	case p.ep.LocalAddr():
		return p.coord.status(id)
	}
	_, seq := splitTxID(id)
	md := seal.MsgMetadata{TxID: seq, OpType: uint32(ReqTxStatus)}
	resp, err := erpc.Call(p.ep, addr, ReqTxStatus, md, id[:], 2*time.Second, f)
	if err != nil || len(resp) == 0 {
		return StatusPending
	}
	return resp[0]
}

// addrOf resolves a coordinator's node id to its address under the
// current shard map ("" without one), refreshed first when a sender has
// seen a newer epoch.
func (p *Participant) addrOf(coordID, epoch uint64) string {
	if p.shard == nil || p.shard.View() == nil {
		return ""
	}
	if epoch > p.shard.View().Epoch && p.refresh != nil {
		p.refresh()
	}
	addr, _ := p.shard.View().Addr(coordID)
	return addr
}

// ActiveCount reports in-flight parts (test hook).
func (p *Participant) ActiveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.active)
}
