package obs

import (
	"sync"
	"time"
)

// Stage names one step of the 2PC transaction lifecycle. Stages are
// free-form strings so other state machines (recovery, flush pipelines)
// can reuse the tracer, but the canonical 2PC sequence is:
//
//	begin → execute → prepare → log-force → counter-stabilize →
//	commit | abort → reclaim
//
// with "recover" prefixing replays driven by crash recovery.
type Stage string

// Canonical 2PC stages.
const (
	StageBegin     Stage = "begin"             // transaction registered at the coordinator
	StageExecute   Stage = "execute"           // client ops running against participants
	StagePrepare   Stage = "prepare"           // prepare logged + PREPARE broadcast, votes gathered
	StageLogForce  Stage = "log-force"         // decision record forced to the coordinator log
	StageStabilize Stage = "counter-stabilize" // waiting for the trusted counter to cover the decision
	StageCommit    Stage = "commit"            // COMMIT pushed to write participants
	StageAbort     Stage = "abort"             // ABORT pushed to participants
	StageReclaim   Stage = "reclaim"           // coordinator-side state reclaimed
	StageRecover   Stage = "recover"           // crash-recovery replay of a pending decision
)

// Outcomes recorded by Trace.Finish.
const (
	OutcomeCommitted = "committed"
	OutcomeAborted   = "aborted"
	OutcomeRecovered = "recovered"
)

// StageSpan is one completed stage with its wall-clock duration.
type StageSpan struct {
	Stage    Stage         `json:"stage"`
	Duration time.Duration `json:"duration"`
}

// tracerRetain is how many finished traces a Tracer keeps for
// inspection (tests, treatystat). Old traces are overwritten ring-style.
const tracerRetain = 64

// Tracer mints per-transaction traces and aggregates per-stage
// durations into histograms named "<prefix>.<stage>" in its registry.
// It works with a nil registry (durations are still recorded on the
// traces themselves, only the histograms vanish). Safe for concurrent
// use.
type Tracer struct {
	reg    *Registry
	prefix string
	now    func() time.Time // injectable clock for tests

	mu     sync.Mutex
	hists  map[Stage]*Histogram
	recent []*Trace // ring of finished traces
	next   int
}

// NewTracer creates a tracer whose stage histograms live under prefix
// (e.g. "twopc.stage") in reg.
func NewTracer(reg *Registry, prefix string) *Tracer {
	return &Tracer{
		reg:    reg,
		prefix: prefix,
		now:    time.Now,
		hists:  make(map[Stage]*Histogram),
	}
}

// stageHist returns the histogram for one stage, caching the lookup.
func (t *Tracer) stageHist(s Stage) *Histogram {
	if t.reg == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[s]
	if !ok {
		h = t.reg.Histogram(t.prefix + "." + string(s))
		t.hists[s] = h
	}
	return h
}

// retain stores a finished trace in the ring.
func (t *Tracer) retain(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recent) < tracerRetain {
		t.recent = append(t.recent, tr)
		return
	}
	t.recent[t.next] = tr
	t.next = (t.next + 1) % tracerRetain
}

// Recent returns the retained finished traces, oldest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.recent))
	for i := 0; i < len(t.recent); i++ {
		out = append(out, t.recent[(t.next+i)%len(t.recent)])
	}
	return out
}

// Begin starts a trace in stage at the current instant. A nil tracer
// returns a nil trace; every Trace method is nil-safe.
func (t *Tracer) Begin(id string, stage Stage) *Trace {
	if t == nil {
		return nil
	}
	now := t.now()
	return &Trace{t: t, id: id, cur: stage, curStart: now, start: now}
}

// Trace records one transaction's journey through the stage machine. A
// trace is owned by the fiber driving the transaction; Enter/Finish are
// not meant to be called concurrently with each other, but the mutex
// makes concurrent readers (Recent, Spans) race-clean.
type Trace struct {
	t  *Tracer
	id string

	mu       sync.Mutex
	start    time.Time
	cur      Stage
	curStart time.Time
	spans    []StageSpan
	done     bool
	outcome  string
	reason   string
	total    time.Duration
}

// ID returns the transaction id the trace was minted with.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Enter closes the current stage (recording its duration) and opens s.
// Re-entering the current stage is a no-op, so per-operation call sites
// (one Enter per Get/Put) collapse into a single span. Calls after
// Finish are ignored.
func (tr *Trace) Enter(s Stage) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done || tr.cur == s {
		tr.mu.Unlock()
		return
	}
	now := tr.t.now()
	closed := tr.cur
	d := now.Sub(tr.curStart)
	tr.spans = append(tr.spans, StageSpan{Stage: closed, Duration: d})
	tr.cur = s
	tr.curStart = now
	tr.mu.Unlock()
	tr.t.stageHist(closed).ObserveDuration(d)
}

// Finish closes the trace with an outcome (OutcomeCommitted/Aborted/
// Recovered) and an optional reason ("prepare_failed", "client_rollback",
// ...). The in-progress stage is closed and recorded, the trace enters
// the tracer's retention ring, and further Enter/Finish calls become
// no-ops.
func (tr *Trace) Finish(outcome, reason string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	now := tr.t.now()
	closed := tr.cur
	d := now.Sub(tr.curStart)
	tr.spans = append(tr.spans, StageSpan{Stage: closed, Duration: d})
	tr.done = true
	tr.outcome = outcome
	tr.reason = reason
	tr.total = now.Sub(tr.start)
	tr.mu.Unlock()
	tr.t.stageHist(closed).ObserveDuration(d)
	tr.t.retain(tr)
}

// Spans returns a copy of the completed stage spans, in order.
func (tr *Trace) Spans() []StageSpan {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]StageSpan, len(tr.spans))
	copy(out, tr.spans)
	return out
}

// Stages returns just the ordered stage names of the completed spans.
func (tr *Trace) Stages() []Stage {
	spans := tr.Spans()
	out := make([]Stage, len(spans))
	for i, sp := range spans {
		out[i] = sp.Stage
	}
	return out
}

// Outcome returns the recorded outcome and reason ("" until Finish).
func (tr *Trace) Outcome() (outcome, reason string) {
	if tr == nil {
		return "", ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.outcome, tr.reason
}

// Total returns the begin-to-finish wall time (0 until Finish).
func (tr *Trace) Total() time.Duration {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}
