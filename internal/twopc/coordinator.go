package twopc

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
)

// Errors returned by the coordinator.
var (
	// ErrAborted indicates the transaction was aborted (a participant
	// voted no, timed out, or Rollback was called).
	ErrAborted = errors.New("twopc: transaction aborted")
	// ErrTxnFinished indicates use of a finished distributed transaction.
	ErrTxnFinished = errors.New("twopc: transaction already finished")
	// ErrNoShardMap indicates the coordinator has no routing view yet
	// (boot wiring incomplete).
	ErrNoShardMap = errors.New("twopc: no shard map view")
)

// wrongEpochMsg is the participant's retriable rejection of an
// operation carrying a different shard-map epoch than its own view (or
// routed to a node that does not own the key's slot). Coordinators and
// clients react by refetching the map and retrying the transaction.
const wrongEpochMsg = "twopc: wrong epoch"

// slotFencedMsg rejects new operations on a slot frozen for migration;
// like wrong-epoch it is retriable — the fence lifts when the slot's
// epoch flip completes (or the migration aborts).
const slotFencedMsg = "twopc: slot fenced for migration"

// IsWrongEpoch reports whether an operation failed because the
// receiving participant's shard-map epoch differed from the sender's
// (the error crosses the wire as an erpc remote error, so the check is
// by message). Callers should refresh their shard map and retry the
// transaction.
func IsWrongEpoch(err error) bool {
	return err != nil && strings.Contains(err.Error(), wrongEpochMsg)
}

// IsSlotFenced reports whether an operation was rejected by a
// migration fence (retriable after the migration completes).
func IsSlotFenced(err error) bool {
	return err != nil && strings.Contains(err.Error(), slotFencedMsg)
}

// Coordinator drives distributed transactions from one node (the TxC).
// Every node runs one; clients pick any node as their coordinator.
type Coordinator struct {
	nodeID  uint64
	ep      *erpc.Endpoint
	part    *Participant
	clog    *Clog
	shard   *shardmap.Holder
	refresh func()
	timeout time.Duration

	nextTx atomic.Uint64

	// The status table. commits records the committed transactions for
	// status queries (seeded by Clog replay, extended by live traffic); an
	// id it lacks is presumed aborted unless open holds it. open holds the
	// state of every transaction whose protocol work is unfinished: a
	// logged prepare with no decision yet, or a recovered decision whose
	// push RecoverPending still owes.
	mu      sync.Mutex
	commits map[lsm.TxID]struct{}
	open    map[lsm.TxID]txState

	// Commit pushes running after their answer (Drain, HoldPushes).
	pushes   pushSet
	pushGate sync.RWMutex

	tracer *obs.Tracer
	// reg holds the counters step's effects name. The transaction counters
	// obey the twopc.tx law:
	//
	//	begun == committed + aborted + inflight
	//
	// Recovery passes deliberately touch none of begun, committed,
	// aborted and inflight: they re-drive transactions that were already
	// counted (or that belonged to a previous boot's registry), so counting
	// them again would break the law. They are visible through the
	// recover.* counters and the "recover" stage traces instead.
	reg                       *obs.Registry
	begun, committed, aborted *obs.Counter
	inflight                  *obs.Gauge
	stabilizeWait             *obs.Histogram // time spent in waitToken
}

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// NodeID is this node's cluster id.
	NodeID uint64
	// Endpoint sends protocol messages (its event loop must be driven).
	Endpoint *erpc.Endpoint
	// Participant is this node's participant (required): an operation on
	// a key the node owns, and this node's leg of a prepare, commit or
	// abort, are calls into it, never a request to itself.
	Participant *Participant
	// Clog is the coordinator log.
	Clog *Clog
	// Shard supplies the routing view: the current epoch of the attested
	// shard map. A transaction pins one view at Begin and routes every
	// operation through it, stamping the view's epoch into the message
	// metadata — the whole transaction executes at a single epoch, and
	// participants whose epoch differs reject with ErrWrongEpoch.
	Shard *shardmap.Holder
	// Refresh, when non-nil, is invoked after a wrong-epoch rejection so
	// the node refetches the shard map from the CAS before the client
	// retries (may be nil; tests and single-node rigs skip it).
	Refresh func()
	// Timeout bounds each remote operation (0 = 2s); a decision's rollback
	// protection is waited for 4 × Timeout, after which a dead counter
	// service fails the commit as indeterminate instead of hanging it.
	Timeout time.Duration
	// Recovered seeds protocol state from Clog replay (may be nil).
	Recovered []ClogEntry
	// Metrics, when non-nil, exports transaction counters under
	// "twopc.*" and per-stage 2PC latency histograms under
	// "twopc.stage.*".
	Metrics *obs.Registry
}

// NewCoordinator creates a coordinator, replays the recovered Clog
// records through step (the stable ones, then the dropped tail) and
// registers its status handler.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Participant == nil {
		panic("twopc: a coordinator needs its node's participant")
	}
	m := cfg.Metrics
	c := &Coordinator{
		nodeID:        cfg.NodeID,
		ep:            cfg.Endpoint,
		part:          cfg.Participant,
		clog:          cfg.Clog,
		shard:         cfg.Shard,
		refresh:       cfg.Refresh,
		timeout:       cfg.Timeout,
		commits:       make(map[lsm.TxID]struct{}),
		open:          make(map[lsm.TxID]txState),
		tracer:        obs.NewTracer(m, "twopc.stage"),
		reg:           m,
		begun:         m.Counter("twopc.tx.begun"),
		committed:     m.Counter("twopc.tx.committed"),
		aborted:       m.Counter("twopc.tx.aborted"),
		inflight:      m.Gauge("twopc.tx.inflight"),
		stabilizeWait: m.Histogram("twopc.stabilize.wait_ns"),
	}
	m.GaugeFunc("twopc.coord.prepared", func() int64 {
		return int64(c.PreparedCount())
	})
	m.GaugeFunc("twopc.coord.pushing", c.pushes.n.Load)
	// Every coordinated transaction is accounted for exactly once;
	// recovery replays are outside the law (see twopc.recover.*).
	m.Balance("twopc.tx", "twopc.tx.begun", "twopc.tx.committed", "twopc.tx.aborted", "twopc.tx.inflight")
	m.Balance("twopc.push", "twopc.coord.pushing")
	if c.timeout == 0 {
		c.timeout = 2 * time.Second
	}
	for _, e := range slices.Concat(cfg.Recovered, cfg.Clog.DroppedTail()) {
		s := c.open[e.TxID]
		s.mode = recovery
		fx := step(&s, &event{kind: evRecord, rec: &e}, nil)
		c.open[e.TxID] = s
		for _, x := range fx { // a replayed record's one effect is its note
			c.note(e.TxID, s, x.code)
		}
	}
	// Transaction sequence numbers start at a per-boot random offset, like
	// the endpoint's operation ids (erpc.NextOpID).
	// The recovered Clog cannot bound the ids a previous boot handed out:
	// a transaction that never reached Commit logged nothing, and a
	// prepare record may have been dropped as an unstabilized tail while
	// its participants still hold the prepared transaction — reusing its
	// id would let that stale write set commit under the new decision.
	var txSeed [8]byte
	if _, err := rand.Read(txSeed[:5]); err == nil {
		c.nextTx.Store(binary.LittleEndian.Uint64(txSeed[:]) << 24)
	}
	c.part.coord = c
	c.ep.Register(ReqTxStatus, c.handleStatus)
	return c
}

// handleStatus answers a participant's recovery query, which names the
// transaction in its payload.
func (c *Coordinator) handleStatus(req *erpc.Request) {
	id, ok := payloadTxID(req)
	if !ok {
		req.ReplyError("twopc: short status query")
		return
	}
	req.Reply([]byte{c.status(id)})
}

// status reports id's outcome to a participant resolving it: committed,
// pending while its prepare awaits a decision, and otherwise presumed
// aborted.
func (c *Coordinator) status(id lsm.TxID) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.commits[id]; ok {
		return StatusCommit
	}
	if s, ok := c.open[id]; ok && s.phase != cDecided {
		return StatusPending
	}
	return StatusAbort
}

// note publishes s, id's state after a step, to the status table: a
// commit is recorded, and s stays open while it owes work. An abort needs
// no record: an id the table lacks answers abort.
func (c *Coordinator) note(id lsm.TxID, s txState, status uint8) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if status == StatusCommit {
		c.commits[id] = struct{}{}
	}
	if s.phase == cDone {
		delete(c.open, id)
	} else {
		c.open[id] = s
	}
}

// DistTxn is one distributed transaction driven by a coordinator on
// behalf of a client. Not safe for concurrent use (one client, one
// transaction, one fiber — "Each RPC is strictly owned by one thread").
type DistTxn struct {
	c   *Coordinator
	id  lsm.TxID
	seq uint64
	// view is the shard map pinned at Begin: the whole transaction
	// routes and epoch-stamps through one consistent view, so a
	// concurrent epoch flip surfaces as a retriable wrong-epoch
	// rejection rather than a torn route. Nil only for recovery
	// replays, which broadcast control messages and never route keys.
	view  *shardmap.Map
	parts map[string]leg // participant address → what was sent there
	f     *fibers.Fiber  // waits parked for remote replies; nil on a goroutine
	// st is the protocol state step drives; token is its appended
	// decision's, which a stabilize effect waits on.
	st    txState
	token durlog.StableToken
	// trace follows the transaction through the 2PC stage machine; a
	// recovery pass's traces only its "recover" stage.
	trace *obs.Trace
}

// leg is what a transaction knows of one participant.
type leg struct {
	writer bool // sent a put or delete
	open   bool // an op there succeeded, so its part exists
}

// TxnOutcome classifies how a distributed transaction ended from the
// client's point of view. The distinction between TxnAborted and
// TxnIndeterminate is a durability argument, not a convenience: once
// Commit has appended its commit decision, the decision may stabilize
// after the error was returned (or its counter round may have completed
// unseen), and then the transaction commits, pushed live or by
// RecoverPending. So may a sole writer whose one-phase commit went
// unanswered. Rollback and every commit that failed before appending a
// commit decision are definite aborts: recovery aborts a prepare record
// that no stable commit decision follows. History auditors rely on this
// classification being sound.
type TxnOutcome uint8

const (
	// TxnPending: the transaction has not finished.
	TxnPending TxnOutcome = iota
	// TxnCommitted: Commit returned success.
	TxnCommitted
	// TxnAborted: the transaction definitely did not and cannot commit.
	TxnAborted
	// TxnIndeterminate: Commit failed from the client's view, but its
	// commit decision, or a sole writer's one-phase commit, may still take
	// effect.
	TxnIndeterminate
)

// Outcome returns the client-visible outcome (TxnPending until Commit
// or Rollback returns).
func (t *DistTxn) Outcome() TxnOutcome { return t.st.outcome }

// Begin starts a distributed transaction driven by fiber f (nil on a
// goroutine), which waits parked for remote replies.
func (c *Coordinator) Begin(f *fibers.Fiber) *DistTxn {
	seq := c.nextTx.Add(1)
	c.begun.Inc()
	c.inflight.Add(1)
	id := globalTxID(c.nodeID, seq)
	var view *shardmap.Map
	if c.shard != nil {
		view = c.shard.View()
	}
	return &DistTxn{
		c:     c,
		id:    id,
		seq:   seq,
		view:  view,
		parts: make(map[string]leg),
		f:     f,
		trace: c.tracer.Begin(txTraceID(id), obs.StageBegin),
	}
}

// Epoch reports the shard-map epoch the transaction is pinned to
// (0 when no view is bound).
func (t *DistTxn) Epoch() uint64 {
	if t.view == nil {
		return 0
	}
	return t.view.Epoch
}

// ownerAddr resolves key's owner under the pinned view.
func (t *DistTxn) ownerAddr(key []byte) (string, error) {
	if t.view == nil {
		return "", ErrNoShardMap
	}
	addr := t.view.Owner(key)
	if addr == "" {
		return "", fmt.Errorf("twopc: slot %d unowned at epoch %d",
			shardmap.SlotOf(key), t.view.Epoch)
	}
	return addr, nil
}

// noteWrongEpoch triggers a shard-map refresh after a wrong-epoch
// rejection, so the node's view catches up before the client retries.
func (c *Coordinator) noteWrongEpoch(err error) {
	if IsWrongEpoch(err) && c.refresh != nil {
		c.refresh()
	}
}

// txTraceID renders a global transaction id as "node.seq" for traces.
func txTraceID(id lsm.TxID) string {
	node, seq := splitTxID(id)
	return fmt.Sprintf("%d.%d", node, seq)
}

// Tracer exposes the coordinator's stage tracer (tests and treatystat
// read the recent traces).
func (c *Coordinator) Tracer() *obs.Tracer { return c.tracer }

// ID returns the global transaction id.
func (t *DistTxn) ID() lsm.TxID { return t.id }

// SetFiber rebinds the waiting fiber. Server-side client sessions
// execute each client request on its own fiber, so the current fiber must
// be bound before every operation.
func (t *DistTxn) SetFiber(f *fibers.Fiber) { t.f = f }

// call performs one operation against the key's owner at addr. When the
// owner is this node, the operation is a call into its participant, on
// the transaction's fiber (or goroutine). It passes the same gate as a
// request off the wire, and no message is built, sealed or sent. Until
// an op at addr has succeeded, the op may open the transaction's part
// there (flagOpensPart); after that, the part must still exist.
func (t *DistTxn) call(addr string, reqType uint8, key, value []byte) ([]byte, error) {
	md := seal.MsgMetadata{
		TxID:     t.seq,
		OpType:   uint32(reqType),
		KeyLen:   uint32(len(key)),
		ValueLen: uint32(len(value)),
		Epoch:    t.Epoch(),
	}
	l := t.parts[addr]
	if !l.open {
		md.Flags = flagOpensPart
	}
	t.trace.Enter(obs.StageExecute) // collapses across per-op calls
	var resp []byte
	var err error
	if addr == t.c.ep.LocalAddr() {
		md.NodeID = t.c.ep.NodeID()
		resp, err = t.c.part.op(t.f, reqType, md, key, value)
	} else {
		payload := make([]byte, 0, len(key)+len(value))
		payload = append(payload, key...)
		payload = append(payload, value...)
		resp, err = erpc.Call(t.c.ep, addr, reqType, md, payload, t.c.timeout, t.f)
	}
	// A writer counts whatever the reply: a lost one may have written.
	l.writer = l.writer || reqType != ReqTxnGet
	l.open = l.open || err == nil
	t.parts[addr] = l
	return resp, err
}

// op executes one keyed operation: route key to its owner under the
// pinned view, perform it there, and let a wrong-epoch rejection trigger
// the shard-map refresh. Get, Put and Delete differ only in the request
// type and in how they read the reply.
func (t *DistTxn) op(reqType uint8, key, value []byte) ([]byte, error) {
	if t.st.phase != cExecute {
		return nil, ErrTxnFinished
	}
	addr, err := t.ownerAddr(key)
	if err != nil {
		return nil, err
	}
	resp, err := t.call(addr, reqType, key, value)
	t.c.noteWrongEpoch(err)
	return resp, err
}

// Get reads key through the owning participant.
func (t *DistTxn) Get(key []byte) ([]byte, bool, error) {
	resp, err := t.op(ReqTxnGet, key, nil)
	if err != nil || len(resp) == 0 || resp[0] == GetNotFound {
		return nil, false, err
	}
	return resp[1:], true, nil
}

// Put writes key through the owning participant.
func (t *DistTxn) Put(key, value []byte) error {
	_, err := t.op(ReqTxnPut, key, value)
	return err
}

// Delete removes key through the owning participant.
func (t *DistTxn) Delete(key []byte) error {
	_, err := t.op(ReqTxnDelete, key, nil)
	return err
}

// broadcast sends control message reqType to every participant and waits
// for all replies; it returns the per-participant results, in participant
// order, and the first error. This node's own leg is a call into its
// participant (control) on the transaction's fiber, made between sending
// the remote legs and waiting for them, so it overlaps them. Remote
// participants that do not answer within the timeout are abandoned
// (erpc.Fan.Wait), so the endpoint's pending map cannot grow across lost
// messages.
func (t *DistTxn) broadcast(reqType uint8, participants []string) ([]erpc.Reply, error) {
	self := t.c.ep.LocalAddr()
	var remote []string
	for _, addr := range participants {
		if addr != self {
			remote = append(remote, addr)
		}
	}
	fan := erpc.Send(t.c.ep, remote, reqType, seal.MsgMetadata{TxID: t.seq, OpType: uint32(reqType)}, t.id[:])
	var local erpc.Reply
	if len(remote) < len(participants) {
		local.Resp, local.Err = t.c.part.control(t.f, reqType, t.id)
	}
	remoteReplies := fan.Wait(len(remote), t.c.timeout, t.f)
	replies := make([]erpc.Reply, len(participants))
	for i, addr := range participants {
		if addr == self {
			replies[i] = local
		} else {
			replies[i], remoteReplies = remoteReplies[0], remoteReplies[1:]
		}
	}
	for _, r := range replies {
		if r.Err != nil {
			return replies, r.Err
		}
	}
	return replies, nil
}

// participants returns the involved addresses, sorted (determinism).
func (t *DistTxn) participants() []string {
	out := make([]string, 0, len(t.parts))
	for a := range t.parts {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Commit commits the transaction: by one round of read-only votes, by a
// sole writer's one-phase commit, or by Fig. 2's two phases (step says
// which, and which failures are indeterminate).
func (t *DistTxn) Commit() error {
	if t.st.phase != cExecute {
		return ErrTxnFinished
	}
	ev := event{kind: evCommit, parts: t.participants(), err: t.c.clog.Poisoned()}
	for _, addr := range ev.parts {
		if t.parts[addr].writer {
			ev.writers = append(ev.writers, addr)
		} else {
			ev.readers = append(ev.readers, addr)
		}
	}
	return t.run(ev)
}

// Rollback aborts the transaction everywhere.
func (t *DistTxn) Rollback() error {
	if t.st.phase != cExecute {
		return ErrTxnFinished
	}
	return t.run(event{kind: evRollback, parts: t.participants()})
}

// run is the coordinator's interpreter: it steps the transaction's state
// by ev and performs the effects in order on the transaction's fiber,
// feeding the last one's completion back as the next event, until a step
// ends on an effect without one. It returns what the answer carried.
func (t *DistTxn) run(ev event) error {
	var buf [maxEffects]effect
	for more := true; more; {
		fx := step(&t.st, &ev, buf[:0])
		more = false
		for _, e := range fx {
			more, ev = true, event{kind: evDone}
			switch e.kind {
			case fxSend:
				replies, err := t.broadcast(e.code, e.to)
				ev.err, ev.resps = err, make([][]byte, len(replies))
				for j, r := range replies {
					ev.resps[j] = r.Resp
				}
			case fxAppend: // the only decision Commit logs is a commit
				t.token, ev.err = t.c.clog.Append(e.code, t.id, e.code == clogDecision, e.to)
			case fxStabilize:
				ev.err = t.waitToken(t.token)
			default:
				more = false
				t.perform(e)
			}
		}
	}
	return t.st.err
}

// perform performs an effect that completes at once.
func (t *DistTxn) perform(e effect) {
	switch s := &t.st; e.kind {
	case fxStage:
		if s.mode == live { // a recovery pass traces only its "recover" stage
			t.trace.Enter(obs.Stage(e.name))
		}
	case fxCount:
		t.c.reg.Counter(e.name).Inc()
	case fxNote:
		t.c.note(t.id, *s, e.code)
	case fxPush:
		t.push(e.code, e.to, s.mode == live)
	case fxAnswer:
		// A client's transaction settles in the twopc.tx law and closes
		// its trace, once; a recovery pass closes its "recover" trace.
		switch {
		case s.mode == live:
			t.c.inflight.Add(-1)
			if s.outcome == TxnCommitted {
				t.c.committed.Inc()
				t.trace.Finish(obs.OutcomeCommitted, s.reason)
			} else {
				t.c.aborted.Inc()
				t.trace.Finish(obs.OutcomeAborted, s.reason)
			}
		default:
			t.trace.Finish(obs.OutcomeRecovered, s.reason)
		}
	}
}

// decisionAttempts bounds a decision push, live or from recovery.
const decisionAttempts = 4

// push sends decision req to its participants, re-sending to those that
// did not answer on the retry ladder. Only remote legs can go unanswered:
// this node's own leg is a call. A lost decision push is always safe —
// recovery re-derives it — but re-pushing promptly releases prepared
// participants without waiting for a restart. A detached push is a live
// commit's: it runs after the client's answer on a goroutine of its own,
// waits for the decision's token (stable already if the client heard
// committed), notes the commit and pushes it, and ends the transaction's
// trace. If the counter fails instead, nothing is pushed: the restarted
// Clog decides.
func (t *DistTxn) push(req uint8, to []string, detach bool) {
	if detach {
		push, st := &DistTxn{c: t.c, id: t.id, seq: t.seq, token: t.token, trace: t.trace}, t.st
		t.trace = nil // the push ends it
		t.c.pushes.Add()
		go func(to []string) {
			defer t.c.pushes.Done()
			outcome := obs.OutcomeAborted
			if push.token.Wait() == nil {
				t.c.note(push.id, st, StatusCommit)
				t.c.pushGate.RLock()
				t.c.pushGate.RUnlock()
				push.push(req, to, false)
				push.trace.Enter(obs.StageReclaim)
				outcome = obs.OutcomeCommitted
			}
			push.trace.Finish(outcome, st.reason)
		}(to)
		return
	}
	for retry := t.c.ep.Retry(decisionAttempts, erpc.RetryBase, erpc.RetryCap, t.f); ; {
		replies, _ := t.broadcast(req, to)
		var unanswered []string
		for i, r := range replies {
			if errors.Is(r.Err, erpc.ErrTimeout) {
				unanswered = append(unanswered, to[i])
			}
		}
		if to = unanswered; len(to) == 0 || !retry.Next() {
			return
		}
	}
}

// pushSet is a WaitGroup whose count the twopc.coord.pushing gauge reads.
type pushSet struct {
	sync.WaitGroup
	n atomic.Int64
}

func (p *pushSet) Add()  { p.n.Add(1); p.WaitGroup.Add(1) }
func (p *pushSet) Done() { p.n.Add(-1); p.WaitGroup.Done() }

// Drain waits for every commit push in flight. A clean stop calls it
// while the endpoints still run; a crash never does: recovery re-pushes.
func (c *Coordinator) Drain() { c.pushes.Wait() }

// HoldPushes holds commit pushes that start from now on until release
// (test hook).
func (c *Coordinator) HoldPushes() (release func()) {
	c.pushGate.Lock()
	return c.pushGate.Unlock
}

// waitToken waits for a stable token up to the coordinator's
// stabilization deadline, 4 × the RPC timeout — a dead counter service
// must fail the commit (durlog.ErrStabilizeTimeout), not hold its fiber
// forever; a permanent counter-service failure surfaces as its error.
func (t *DistTxn) waitToken(token durlog.StableToken) error {
	start := time.Now()
	defer t.c.stabilizeWait.ObserveSince(start)
	return token.Await(start.Add(4*t.c.timeout), t.f)
}

// RecoverPending finishes the transactions the Clog replay left open
// (§VI): each recovered decision's push, owed once, and each logged
// prepare without a decision, which is aborted. A live transaction's
// open state is its own run's to finish.
func (c *Coordinator) RecoverPending(f *fibers.Fiber) {
	work := make(map[lsm.TxID]txState)
	c.mu.Lock()
	for id, s := range c.open {
		if s.mode != recovery {
			continue
		}
		work[id] = s
		if s.phase == cDecided {
			delete(c.open, id)
		}
	}
	c.mu.Unlock()
	c.recover(work, nil, f)
}

// AdoptRecovered replays a dead peer coordinator's replicated Clog
// records (as its Ship hook handed them over) through step and finishes
// each transaction this coordinator has no decision for, with rewrite
// (when non-nil) applied to its participants: a decision is re-pushed
// and an undecided prepare aborted (step says why). Adopted decisions
// seed the status table, so participants probing the dead coordinator's
// transactions get answers from the successor.
func (c *Coordinator) AdoptRecovered(records []durlog.Entry, rewrite func(string) string, f *fibers.Fiber) error {
	entries, err := DecodeClogRecords(records)
	if err != nil {
		return err
	}
	work := make(map[lsm.TxID]txState)
	for _, e := range entries {
		s := work[e.TxID]
		s.mode = adoption
		step(&s, &event{kind: evRecord, rec: &e}, nil)
		work[e.TxID] = s
	}
	for id := range work {
		if c.Committed(id) { // this coordinator already resolved it
			delete(work, id)
		}
	}
	c.recover(work, rewrite, f)
	return nil
}

// recover drives each transaction of work through evRecover, with rewrite
// applied to its participants when non-nil, on fiber f, in id order, so
// recovery passes are reproducible. Each pass has a "recover" trace of
// its own and stays outside the tx.* law.
func (c *Coordinator) recover(work map[lsm.TxID]txState, rewrite func(string) string, f *fibers.Fiber) {
	ids := make([]lsm.TxID, 0, len(work))
	for id := range work {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b lsm.TxID) int { return bytes.Compare(a[:], b[:]) })
	for _, id := range ids {
		_, seq := splitTxID(id)
		t := &DistTxn{c: c, id: id, seq: seq, f: f, st: work[id], trace: c.tracer.Begin(txTraceID(id), obs.StageRecover)}
		t.run(event{kind: evRecover, rewrite: rewrite}) // a recovery pass only pushes: it never fails
	}
}

// Committed reports whether this coordinator knows id committed.
func (c *Coordinator) Committed(id lsm.TxID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.commits[id]
	return ok
}

// PreparedCount reports prepare-logged transactions still awaiting a
// decision (the chaos harness asserts this drains to zero at quiesce).
func (c *Coordinator) PreparedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.open {
		if s.phase != cDecided {
			n++
		}
	}
	return n
}
