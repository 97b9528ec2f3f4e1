package twopc

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
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
	"treaty/internal/txn"
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

	// decisions records known outcomes for status queries (seeded from
	// Clog recovery, extended by live traffic).
	mu        sync.Mutex
	decisions map[lsm.TxID]bool
	prepared  map[lsm.TxID][]string // prepare logged, no decision yet
	// decidedParts keeps the participant lists of decided-but-possibly-
	// unpushed transactions recovered from the Clog, so RecoverPending
	// can re-instruct them.
	decidedParts map[lsm.TxID][]string

	// Commit pushes running after their answer (Drain, HoldPushes).
	pushes   pushSet
	pushGate sync.RWMutex

	tracer *obs.Tracer
	met    coordMetrics
}

// coordMetrics aggregates the coordinator's counters. All fields are
// nil-safe no-ops when no registry is configured. The transaction
// counters obey the twopc.tx law (NewCoordinator):
//
//	begun == committed + aborted + inflight
//
// Recovery-driven replays (RecoverPending) deliberately touch none of
// these: they re-drive transactions that were already counted (or that
// belonged to a previous boot's registry), so counting them again would
// break the law. They are visible through the recover.* counters and
// the "recover" stage traces instead.
type coordMetrics struct {
	begun, committed, aborted *obs.Counter
	inflight                  *obs.Gauge

	// aborts by reason
	abortPrepareFailed *obs.Counter // a participant voted no or timed out
	abortLogAppend     *obs.Counter // Clog append failed
	abortStabilize     *obs.Counter // decision never became rollback-protected
	abortClient        *obs.Counter // explicit Rollback

	// recovery resolutions
	recoverRedo         *obs.Counter // prepare re-executed after crash
	recoverRepushCommit *obs.Counter
	recoverRepushAbort  *obs.Counter
	recoverAdopted      *obs.Counter // dead peer's Clog entries adopted at promotion

	stabilizeWait *obs.Histogram // time spent in waitToken
}

func newCoordMetrics(m *obs.Registry) coordMetrics {
	return coordMetrics{
		begun:               m.Counter("twopc.tx.begun"),
		committed:           m.Counter("twopc.tx.committed"),
		aborted:             m.Counter("twopc.tx.aborted"),
		inflight:            m.Gauge("twopc.tx.inflight"),
		abortPrepareFailed:  m.Counter("twopc.abort.prepare_failed"),
		abortLogAppend:      m.Counter("twopc.abort.log_append"),
		abortStabilize:      m.Counter("twopc.abort.stabilize_timeout"),
		abortClient:         m.Counter("twopc.abort.client_rollback"),
		recoverRedo:         m.Counter("twopc.recover.redo_prepare"),
		recoverRepushCommit: m.Counter("twopc.recover.repush_commit"),
		recoverRepushAbort:  m.Counter("twopc.recover.repush_abort"),
		recoverAdopted:      m.Counter("twopc.recover.adopted"),
		stabilizeWait:       m.Histogram("twopc.stabilize.wait_ns"),
	}
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
	// service aborts the transaction instead of hanging it.
	Timeout time.Duration
	// Recovered seeds protocol state from Clog replay (may be nil).
	Recovered []ClogEntry
	// Metrics, when non-nil, exports transaction counters under
	// "twopc.*" and per-stage 2PC latency histograms under
	// "twopc.stage.*".
	Metrics *obs.Registry
}

// NewCoordinator creates a coordinator and registers its status handler.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Participant == nil {
		panic("twopc: a coordinator needs its node's participant")
	}
	c := &Coordinator{
		nodeID:       cfg.NodeID,
		ep:           cfg.Endpoint,
		part:         cfg.Participant,
		clog:         cfg.Clog,
		shard:        cfg.Shard,
		refresh:      cfg.Refresh,
		timeout:      cfg.Timeout,
		decisions:    make(map[lsm.TxID]bool),
		prepared:     make(map[lsm.TxID][]string),
		decidedParts: make(map[lsm.TxID][]string),
		tracer:       obs.NewTracer(cfg.Metrics, "twopc.stage"),
		met:          newCoordMetrics(cfg.Metrics),
	}
	cfg.Metrics.GaugeFunc("twopc.coord.prepared", func() int64 {
		return int64(c.PreparedCount())
	})
	cfg.Metrics.GaugeFunc("twopc.coord.pushing", c.pushes.n.Load)
	// Every coordinated transaction is accounted for exactly once;
	// recovery replays are outside the law (see twopc.recover.*).
	cfg.Metrics.Balance("twopc.tx", "twopc.tx.begun", "twopc.tx.committed", "twopc.tx.aborted", "twopc.tx.inflight")
	cfg.Metrics.Balance("twopc.push", "twopc.coord.pushing")
	if c.timeout == 0 {
		c.timeout = 2 * time.Second
	}
	for _, w := range foldClog(cfg.Recovered) {
		if w.redo {
			c.prepared[w.id] = w.parts
		} else {
			c.decisions[w.id] = w.commit
			c.decidedParts[w.id] = w.parts
		}
	}
	// Presumed abort, said out loud: a transaction whose records the Clog
	// dropped as an unstabilized tail was never decided as far as anyone
	// was told, but its participants may hold it prepared. Treat it as a
	// decided abort so RecoverPending pushes the abort and releases them.
	for _, e := range cfg.Clog.DroppedTail() {
		if _, decided := c.decisions[e.TxID]; !decided {
			c.decisions[e.TxID] = false
			c.decidedParts[e.TxID] = e.Participants
			delete(c.prepared, e.TxID)
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

// status reports id's outcome to a participant resolving it. A
// transaction this coordinator never prepared is presumed aborted.
func (c *Coordinator) status(id lsm.TxID) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	commit, decided := c.decisions[id]
	_, pending := c.prepared[id]
	switch {
	case decided && commit:
		return StatusCommit
	case !decided && pending:
		return StatusPending
	}
	return StatusAbort
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
	parts map[string]bool // participant address → sent a put or delete
	f     *fibers.Fiber   // waits parked for remote replies; nil on a goroutine
	done  bool
	// outcome is the client-visible classification, set once by finish.
	outcome TxnOutcome
	// trace follows the transaction through the 2PC stage machine. Nil
	// for recovery replays — those must not feed the tx.* conservation
	// counters either (see coordMetrics).
	trace *obs.Trace
}

// TxnOutcome classifies how a distributed transaction ended from the
// client's point of view. The distinction between TxnAborted and
// TxnIndeterminate is a durability argument, not a convenience: once
// Commit has appended a prepare record, a coordinator crash can leave
// that record behind and RecoverPending will re-drive the decision — a
// transaction whose Commit returned an error may still commit later, as
// may a sole writer whose one-phase commit went unanswered. Only Rollback
// and commits that failed before any writer could commit are definite
// aborts. History auditors rely on this classification being sound.
type TxnOutcome uint8

const (
	// TxnPending: the transaction has not finished.
	TxnPending TxnOutcome = iota
	// TxnCommitted: Commit returned success.
	TxnCommitted
	// TxnAborted: the transaction definitely did not and cannot commit.
	TxnAborted
	// TxnIndeterminate: Commit failed from the client's view, but a
	// prepare record may exist and recovery may still commit it.
	TxnIndeterminate
)

// Outcome returns the client-visible outcome (TxnPending until Commit
// or Rollback returns).
func (t *DistTxn) Outcome() TxnOutcome { return t.outcome }

// Begin starts a distributed transaction driven by fiber f (nil on a
// goroutine), which waits parked for remote replies.
func (c *Coordinator) Begin(f *fibers.Fiber) *DistTxn {
	seq := c.nextTx.Add(1)
	c.met.begun.Inc()
	c.met.inflight.Add(1)
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
		parts: make(map[string]bool),
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

// finish settles the transaction's outcome in the conservation counters
// and closes its trace. Called exactly once per client-begun transaction
// (Commit or Rollback); recovery replays never reach it.
func (t *DistTxn) finish(outcome TxnOutcome, reason string) {
	t.c.met.inflight.Add(-1)
	t.outcome = outcome
	if outcome == TxnCommitted {
		t.c.met.committed.Inc()
		t.trace.Finish(obs.OutcomeCommitted, reason)
	} else {
		t.c.met.aborted.Inc()
		t.trace.Finish(obs.OutcomeAborted, reason)
	}
}

// ID returns the global transaction id.
func (t *DistTxn) ID() lsm.TxID { return t.id }

// SetFiber rebinds the waiting fiber. Server-side client sessions
// execute each client request on its own fiber, so the current fiber must
// be bound before every operation.
func (t *DistTxn) SetFiber(f *fibers.Fiber) { t.f = f }

// call performs one operation against the key's owner at addr. When the
// owner is this node, the operation is a call into its participant, on
// the transaction's fiber (or goroutine). It passes the same gate as a
// request off the wire, and no message is built, sealed or sent.
func (t *DistTxn) call(addr string, reqType uint8, key, value []byte) ([]byte, error) {
	md := seal.MsgMetadata{
		TxID:     t.seq,
		OpType:   uint32(reqType),
		KeyLen:   uint32(len(key)),
		ValueLen: uint32(len(value)),
		Epoch:    t.Epoch(),
	}
	// A writer is marked before the send, so a lost reply still counts.
	t.parts[addr] = t.parts[addr] || reqType != ReqTxnGet
	t.trace.Enter(obs.StageExecute) // collapses across per-op calls
	if addr == t.c.ep.LocalAddr() {
		md.NodeID = t.c.ep.NodeID()
		return t.c.part.op(t.f, reqType, md, key, value)
	}
	payload := make([]byte, 0, len(key)+len(value))
	payload = append(payload, key...)
	payload = append(payload, value...)
	return erpc.Call(t.c.ep, addr, reqType, md, payload, t.c.timeout, t.f)
}

// op executes one keyed operation: route key to its owner under the
// pinned view, perform it there, and let a wrong-epoch rejection trigger
// the shard-map refresh. Get, Put and Delete differ only in the request
// type and in how they read the reply.
func (t *DistTxn) op(reqType uint8, key, value []byte) ([]byte, error) {
	if t.done {
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

// decisionAttempts bounds a decision push, live or from recovery.
const decisionAttempts = 4

// broadcastRetry re-sends an idempotent control message (commit/abort
// decision push) to the participants that did not answer, on the retry
// ladder. Only remote legs can go unanswered: this node's own leg is a
// call. A lost decision push is always safe — recovery re-derives it —
// but re-pushing promptly releases prepared participants without waiting
// for a restart.
func (t *DistTxn) broadcastRetry(reqType uint8, remaining []string) {
	for retry := t.c.ep.Retry(decisionAttempts, erpc.RetryBase, erpc.RetryCap, t.f); ; {
		replies, _ := t.broadcast(reqType, remaining)
		var unanswered []string
		for i, r := range replies {
			if errors.Is(r.Err, erpc.ErrTimeout) {
				unanswered = append(unanswered, remaining[i])
			}
		}
		if remaining = unanswered; len(remaining) == 0 || !retry.Next() {
			return
		}
	}
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

// Commit picks its path by the number of writers. With none, nothing is
// logged: every participant votes read-only at prepare. With one, the
// readers' prepares come first, then the writer commits in one phase and
// its stabilized WAL record is the decision. With more, it is Fig. 2.
func (t *DistTxn) Commit() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	participants := t.participants()
	var readers, writers []string
	for _, addr := range participants {
		if t.parts[addr] {
			writers = append(writers, addr)
		} else {
			readers = append(readers, addr)
		}
	}
	if len(participants) == 0 {
		t.finish(TxnCommitted, "empty")
		return nil // no operations
	}
	if len(writers) > 1 {
		return t.commitTwoPhase(participants)
	}
	// A coordinator whose Clog fail-stopped (a crashed node's, say) commits
	// nothing, though these paths append no record. An unknown reader
	// released its locks early: abort the uncommitted writer. A one-phase
	// commit is sent once; its failure is indeterminate.
	t.trace.Enter(obs.StagePrepare)
	err := t.c.clog.Poisoned()
	if err == nil {
		_, err = t.broadcast(ReqPrepare, readers)
	}
	outcome, reason := TxnAborted, "prepare_failed"
	if err == nil && len(writers) == 1 {
		t.trace.Enter(obs.StageCommit)
		_, err = t.broadcast(ReqCommitOnePhase, writers)
		outcome, reason = TxnIndeterminate, "one_phase_failed"
	}
	if err != nil {
		t.trace.Enter(obs.StageAbort)
		_, _ = t.broadcast(ReqAbort, participants) // nothing prepared: nothing to log
		t.c.met.abortPrepareFailed.Inc()
		t.finish(outcome, reason)
		return fmt.Errorf("%w: %s: %v", ErrAborted, reason, err)
	}
	t.finish(TxnCommitted, "")
	return nil
}

// commitTwoPhase runs the two-phase commit (Fig. 2):
//
//  5. Log the prepare start to the Clog (counter-bound) and send
//     TxnPrepare to every participant; each prepares its local
//     transaction and ACKs only after its prepare entry is stabilized.
//  6. Log the commit decision to the Clog and wait until it is
//     rollback-protected ("The TxC, before committing/aborting, also
//     stabilizes the prepare's phase decision on the Clog").
//  7. Answer the client, then send TxnCommit to every writer. The commit
//     entries need not be stable before acknowledging the client: after
//     a crash the same decision re-derives from the stabilized Clog.
//
// Any prepare failure aborts everywhere and returns ErrAborted; every
// failure is indeterminate, since the prepare record may be durable.
func (t *DistTxn) commitTwoPhase(participants []string) error {
	// Step 5: prepare phase.
	t.trace.Enter(obs.StagePrepare)
	if _, err := t.c.clog.Append(clogPrepare, t.id, false, participants); err != nil {
		t.c.met.abortLogAppend.Inc()
		t.finish(TxnIndeterminate, "prepare_log_failed")
		return err
	}
	t.c.mu.Lock()
	t.c.prepared[t.id] = participants
	t.c.mu.Unlock()

	votes, err := t.broadcast(ReqPrepare, participants)
	if err != nil {
		t.trace.Enter(obs.StageAbort)
		t.abort(participants)
		t.c.met.abortPrepareFailed.Inc()
		t.finish(TxnIndeterminate, "prepare_failed")
		return fmt.Errorf("%w: prepare failed: %v", ErrAborted, err)
	}
	// Read-only participants voted and released at prepare; only writers
	// need the decision (the read-only 2PC optimization).
	writers := make([]string, 0, len(participants))
	for i, addr := range participants {
		if len(votes[i].Resp) == 0 || votes[i].Resp[0] != voteReadOnly {
			writers = append(writers, addr)
		}
	}
	if len(writers) == 0 {
		// Every write failed where it was sent: nothing to decide or make
		// durable; record the outcome locally for status queries.
		t.c.record(t.id, true)
		t.finish(TxnCommitted, "readonly")
		return nil
	}

	// Steps 6-7: decide commit, stabilize the decision, then commit.
	// Append enqueues into the Clog's group-commit leader and returns
	// once the whole group is forced, so the log-force stage measures
	// group formation plus one fsync amortized across every transaction
	// deciding concurrently.
	t.trace.Enter(obs.StageLogForce)
	token, err := t.c.clog.Append(clogDecision, t.id, true, writers)
	if err != nil {
		t.trace.Enter(obs.StageAbort)
		t.abort(writers)
		t.c.met.abortLogAppend.Inc()
		t.finish(TxnIndeterminate, "decision_log_failed")
		return fmt.Errorf("%w: decision log failed: %v", ErrAborted, err)
	}
	t.trace.Enter(obs.StageStabilize)
	if err := t.waitToken(token); err != nil {
		t.trace.Enter(obs.StageAbort)
		t.abort(writers)
		t.c.met.abortStabilize.Inc()
		t.finish(TxnIndeterminate, "stabilize_timeout")
		return fmt.Errorf("%w: decision stabilization failed: %v", ErrAborted, err)
	}
	t.c.record(t.id, true)

	// The decision is stable: the transaction IS committed even if a
	// commit message is lost; such a participant resolves at recovery.
	// So the client is answered now and a goroutine pushes the commits;
	// the writers hold their locks until theirs lands, so the client's
	// next transaction still reads its own writes.
	t.trace.Enter(obs.StageCommit)
	push := &DistTxn{c: t.c, id: t.id, seq: t.seq, trace: t.trace}
	t.trace = nil // the push ends it
	t.finish(TxnCommitted, "")
	t.c.pushes.Add()
	go func() {
		defer t.c.pushes.Done()
		t.c.pushGate.RLock()
		t.c.pushGate.RUnlock()
		push.broadcastRetry(ReqCommit, writers)
		push.trace.Enter(obs.StageReclaim)
		push.trace.Finish(obs.OutcomeCommitted, "")
	}()
	return nil
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
// must abort the transaction (txn.ErrStabilizeTimeout), not hold its fiber
// forever; a permanent counter-service failure surfaces as its error.
func (t *DistTxn) waitToken(token durlog.StableToken) error {
	start := time.Now()
	defer t.c.met.stabilizeWait.ObserveSince(start)
	return txn.WaitToken(token, start.Add(4*t.c.timeout), t.f)
}

// record notes a transaction's decision for status queries.
func (c *Coordinator) record(id lsm.TxID, commit bool) {
	c.mu.Lock()
	c.decisions[id] = commit
	delete(c.prepared, id)
	c.mu.Unlock()
}

// abort logs and pushes an abort decision: the abort path of a
// transaction that may hold a prepare record (commitTwoPhase, resolve).
func (t *DistTxn) abort(participants []string) {
	if _, err := t.c.clog.Append(clogDecision, t.id, false, participants); err == nil {
		t.c.record(t.id, false)
	}
	_, _ = t.broadcast(ReqAbort, participants)
}

// Rollback aborts the transaction everywhere.
func (t *DistTxn) Rollback() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	t.c.met.abortClient.Inc()
	if participants := t.participants(); len(participants) > 0 {
		t.trace.Enter(obs.StageAbort)
		_, _ = t.broadcast(ReqAbort, participants) // nothing prepared: nothing to log
	}
	t.finish(TxnAborted, "client_rollback")
	return nil
}

// pending is one transaction a recovery pass has to finish.
type pending struct {
	id    lsm.TxID
	parts []string
	// redo marks a prepare with no logged decision: the prepare phase is
	// re-driven. Otherwise commit is the decision to re-push.
	commit bool
	redo   bool
}

// sortPending orders work by transaction id, so recovery passes are
// reproducible.
func sortPending(work []pending) {
	sort.Slice(work, func(i, j int) bool { return string(work[i].id[:]) < string(work[j].id[:]) })
}

// foldClog folds Clog entries, in log order, into one pending per
// transaction: prepared with the prepare record's participants until a
// decision record, which also names whom to push it to, overrides.
func foldClog(entries []ClogEntry) []pending {
	byID := make(map[lsm.TxID]int)
	var work []pending
	for _, e := range entries {
		i, seen := byID[e.TxID]
		if !seen {
			i = len(work)
			byID[e.TxID] = i
			work = append(work, pending{id: e.TxID, redo: true})
		}
		switch e.Kind {
		case clogPrepare:
			work[i].parts = e.Participants
		case clogDecision:
			work[i].parts, work[i].commit, work[i].redo = e.Participants, e.Commit, false
		}
	}
	sortPending(work)
	return work
}

// resolve finishes one recovered transaction: a logged decision is
// re-pushed to its participants (who ignore what they already applied);
// a prepare without decision re-executes the prepare phase — participants
// still holding the prepared transaction re-ACK and it commits, otherwise
// it aborts. reason prefixes the recovery trace's outcome reason.
//
// Recovery replays intentionally carry no DistTxn trace and never touch
// the tx.* conservation counters (coordMetrics); their paths are recorded
// via recover.* counters and standalone traces.
func (c *Coordinator) resolve(w pending, reason string, f *fibers.Fiber) error {
	_, seq := splitTxID(w.id)
	t := &DistTxn{c: c, id: w.id, seq: seq, parts: map[string]bool{}, f: f}
	tr := c.tracer.Begin(txTraceID(w.id), obs.StageRecover)
	switch {
	case w.redo:
		c.met.recoverRedo.Inc()
		if _, err := t.broadcast(ReqPrepare, w.parts); err != nil {
			t.abort(w.parts)
			tr.Finish(obs.OutcomeRecovered, reason+"redo_prepare_aborted")
			return nil
		}
		token, err := c.clog.Append(clogDecision, w.id, true, w.parts)
		if err != nil {
			return err
		}
		if err := t.waitToken(token); err != nil {
			return err
		}
		c.record(w.id, true)
		t.broadcastRetry(ReqCommit, w.parts)
		tr.Finish(obs.OutcomeRecovered, reason+"redo_prepare")
	case w.commit:
		c.met.recoverRepushCommit.Inc()
		t.broadcastRetry(ReqCommit, w.parts)
		tr.Finish(obs.OutcomeRecovered, reason+"repush_commit")
	default:
		c.met.recoverRepushAbort.Inc()
		t.broadcastRetry(ReqAbort, w.parts)
		tr.Finish(obs.OutcomeRecovered, reason+"repush_abort")
	}
	return nil
}

// RecoverPending finishes transactions the coordinator left in flight at
// a crash (§VI); see resolve.
func (c *Coordinator) RecoverPending(f *fibers.Fiber) error {
	c.mu.Lock()
	var work []pending
	for id, parts := range c.prepared {
		work = append(work, pending{id: id, parts: parts, redo: true})
	}
	for id, parts := range c.decidedParts {
		work = append(work, pending{id: id, parts: parts, commit: c.decisions[id]})
	}
	c.decidedParts = make(map[lsm.TxID][]string)
	c.mu.Unlock()
	sortPending(work)

	for _, w := range work {
		if err := c.resolve(w, "", f); err != nil {
			return err
		}
	}
	return nil
}

// AdoptRecovered folds a dead peer coordinator's replicated Clog
// records (as its Ship hook handed them over) into this coordinator and
// resolves them as RecoverPending resolves this node's own log, except
// that a prepare without a decision is aborted, never re-prepared:
// presumed abort is sound (a decision absent from the replicated prefix
// was never stabilized, hence never acknowledged), and a re-prepare is
// not, because rewrite, when non-nil, maps the dead primary's address to
// this node's, whose one vote would then also stand for the dead
// primary's part. Adopted decisions seed the status table, so
// participants probing the dead coordinator's transactions get answers
// from the successor.
func (c *Coordinator) AdoptRecovered(records []durlog.Entry, rewrite func(string) string, f *fibers.Fiber) error {
	entries, err := DecodeClogRecords(records)
	if err != nil {
		return err
	}
	for _, w := range foldClog(entries) {
		if rewrite != nil {
			parts := make([]string, len(w.parts))
			for i, a := range w.parts {
				parts[i] = rewrite(a)
			}
			w.parts = parts
		}
		w.redo = false // presumed abort: w.commit is false for an undecided prepare
		c.mu.Lock()
		_, known := c.decisions[w.id]
		if !known { // else this coordinator already resolved it
			c.decisions[w.id] = w.commit
		}
		c.mu.Unlock()
		if known {
			continue
		}
		c.met.recoverAdopted.Inc()
		if err := c.resolve(w, "adopt_", f); err != nil {
			return err
		}
	}
	return nil
}

// Decision reports a transaction's outcome (test hook).
func (c *Coordinator) Decision(id lsm.TxID) (commit, decided bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	commit, decided = c.decisions[id]
	return
}

// PreparedCount reports prepare-logged transactions still awaiting a
// decision (the chaos harness asserts this drains to zero at quiesce).
func (c *Coordinator) PreparedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.prepared)
}
