// Package audit records client-observed transaction histories and
// checks them for serializability violations with a serialization-graph
// test (SGT). The recorder captures, per client operation, what the
// client asked for and what it observed (reads with the value seen,
// writes with a uniquely tagged value, and the final commit/abort/
// unknown outcome). Because every written value is unique per
// (transaction, write), the checker can reconstruct which transaction
// produced every observed version, infer per-key version orders from
// read-modify-write parentage, and reject histories that exhibit
// aborted reads (G1a), intermediate reads (G1b), or dependency cycles
// (G1c/G2) — the anomalies the balance-conservation sum alone cannot
// see.
package audit

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Outcome is the client-observed fate of a transaction. Classification
// must be *sound* with respect to recovery: a commit attempt that
// returned an error may still land later (its commit decision can
// stabilize after the error, and its writers, asking, then commit), so
// only transactions that failed before a commit decision existed may
// claim a definite abort.
type Outcome uint8

const (
	// OutcomeCommitted means the client saw Commit succeed.
	OutcomeCommitted Outcome = iota + 1
	// OutcomeAborted means the transaction definitely did not and can
	// never commit (it was rolled back, or failed before its commit
	// decision was appended).
	OutcomeAborted
	// OutcomeIndeterminate means a commit was attempted and the client
	// saw an error: the transaction may or may not have committed, and
	// recovery may still commit it after the fact. The checker treats
	// such transactions as committed iff their writes were observed.
	OutcomeIndeterminate
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeIndeterminate:
		return "indeterminate"
	}
	return "unknown"
}

// OpKind discriminates history operations.
type OpKind uint8

const (
	// OpRead is a point read; Found records whether the key existed.
	OpRead OpKind = iota + 1
	// OpWrite is a point write of a uniquely tagged value.
	OpWrite
)

// Op is one client-observed operation inside a transaction.
type Op struct {
	Kind  OpKind
	Key   string
	Value string
	// Found is meaningful for reads only.
	Found bool
}

// Txn is one finished transaction as the client observed it.
type Txn struct {
	// ID is unique across the recorder's lifetime and embedded in every
	// value the transaction writes.
	ID uint64
	// Client identifies the submitting worker (-1 for harness txns).
	Client int
	// Epoch is the recorder fence epoch the transaction began in. The
	// checker may assume real-time order across epochs: everything in
	// epoch e committed or aborted before anything in epoch e+1 began.
	Epoch   uint64
	Ops     []Op
	Outcome Outcome
}

// Recorder accumulates finished transactions. It is race-clean and
// cheap: each in-flight transaction buffers its ops privately (one
// goroutine per client transaction) and takes one mutex acquisition at
// End. A nil *Recorder is valid and records nothing, so workloads can
// leave auditing off without branching.
type Recorder struct {
	nextID atomic.Uint64
	epoch  atomic.Uint64
	open   atomic.Int64

	mu   sync.Mutex
	txns []Txn
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin starts recording one transaction for the given client. Safe on
// a nil receiver (returns a nil TxnRec whose methods no-op and whose
// Write returns the base value untagged).
func (r *Recorder) Begin(client int) *TxnRec {
	if r == nil {
		return nil
	}
	r.open.Add(1)
	return &TxnRec{r: r, t: Txn{ID: r.nextID.Add(1), Client: client, Epoch: r.epoch.Load()}}
}

// Fence starts a new epoch: the caller asserts every transaction begun
// so far has ended. Later transactions may be assumed (by the checker's
// lost-key rule) to serialize after all committed writes from earlier
// epochs.
func (r *Recorder) Fence() {
	if r != nil {
		r.epoch.Add(1)
	}
}

// History snapshots the finished transactions. Call it at quiescence;
// transactions still open are not included (see Open).
func (r *Recorder) History() []Txn {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Txn, len(r.txns))
	copy(out, r.txns)
	return out
}

// Len returns the number of finished transactions recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.txns)
}

// Open returns the number of transactions begun but not yet ended; a
// checker run is only complete when it is zero.
func (r *Recorder) Open() int64 {
	if r == nil {
		return 0
	}
	return r.open.Load()
}

// TxnRec records one in-flight transaction. Methods are not safe for
// concurrent use with each other (one client goroutine drives one
// transaction) but distinct TxnRecs are independent.
type TxnRec struct {
	r      *Recorder
	t      Txn
	writes int
	done   bool
}

// Read records a client-observed read.
func (tr *TxnRec) Read(key []byte, value []byte, found bool) {
	if tr == nil {
		return
	}
	tr.t.Ops = append(tr.t.Ops, Op{Kind: OpRead, Key: string(key), Value: string(value), Found: found})
}

// Write records a write of base and returns the uniquely tagged value
// the client must actually store: "base#a<txnid>.<n>". The base must
// not contain '#'. On a nil rec the base is returned untouched.
func (tr *TxnRec) Write(key []byte, base string) []byte {
	if tr == nil {
		return []byte(base)
	}
	tr.writes++
	v := base + "#a" + strconv.FormatUint(tr.t.ID, 10) + "." + strconv.Itoa(tr.writes)
	tr.t.Ops = append(tr.t.Ops, Op{Kind: OpWrite, Key: string(key), Value: v})
	return []byte(v)
}

// End finishes the transaction with the given outcome and publishes it
// to the recorder. Idempotent; later calls are ignored.
func (tr *TxnRec) End(o Outcome) {
	if tr == nil || tr.done {
		return
	}
	tr.done = true
	tr.t.Outcome = o
	tr.r.open.Add(-1)
	tr.r.mu.Lock()
	tr.r.txns = append(tr.r.txns, tr.t)
	tr.r.mu.Unlock()
}

// Base strips the audit uniqueness tag from a stored value, returning
// what the workload originally wrote. Values that never passed through
// a recorder are returned unchanged.
func Base(v string) string {
	if i := strings.LastIndex(v, "#a"); i >= 0 {
		return v[:i]
	}
	return v
}
