package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"treaty/internal/core"
	"treaty/internal/obs"
)

// Client spans, recorded from the benchmark's own files around the calls
// into the system: txn -> op.get / op.put / commit. Spans of one
// transaction share a trace id; every span but the root names its parent.

type spanKind uint8

const (
	spanTxn spanKind = iota
	spanGet
	spanPut
	spanCommit
)

var spanNames = [...]string{"txn", "op.get", "op.put", "commit"}

type span struct {
	trace      uint64 // client<<40 | sequence
	id, parent int32  // index in the log; parent -1 for a root
	kind       spanKind
	start, end int64 // ns since the window began
}

// spanLog is one client's in-memory span buffer. A nil *spanLog records
// nothing and reads no clock, so the untraced path pays nothing for it.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog(base time.Time) *spanLog {
	return &spanLog{base: base, spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) now() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// open reserves the root span of a transaction and returns its index.
func (l *spanLog) open(client int, seq uint64) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{trace: uint64(client)<<40 | seq, id: id, parent: -1, kind: spanTxn})
	return id
}

// child records a span that started at start and ends now.
func (l *spanLog) child(root int32, kind spanKind, start time.Time) {
	if l != nil {
		l.childAt(root, kind, start, time.Now())
	}
}

func (l *spanLog) childAt(root int32, kind spanKind, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		trace: l.spans[root].trace, id: int32(len(l.spans)), parent: root, kind: kind,
		start: start.Sub(l.base).Nanoseconds(), end: end.Sub(l.base).Nanoseconds(),
	})
}

// close fills in the root; a transaction that did not commit leaves no
// spans, because every client metric is defined over committed ones.
func (l *spanLog) close(root int32, start, end time.Time, committed bool) {
	if l == nil {
		return
	}
	if !committed {
		l.spans = l.spans[:root]
		return
	}
	l.spans[root].start = start.Sub(l.base).Nanoseconds()
	l.spans[root].end = end.Sub(l.base).Nanoseconds()
}

// mergeSpanLogs concatenates the clients' logs, rebasing span ids.
func mergeSpanLogs(logs []*spanLog) *spanLog {
	out := &spanLog{}
	for _, l := range logs {
		if out.base.IsZero() {
			out.base = l.base
		}
		off := int32(len(out.spans))
		for _, s := range l.spans {
			s.id += off
			if s.parent >= 0 {
				s.parent += off
			}
			out.spans = append(out.spans, s)
		}
	}
	return out
}

// clientTimes are the per-transaction aggregates the client metrics use.
type clientTimes struct {
	get, put                    []int64 // every op span
	execute, commit, self, txns []int64 // one per transaction
}

// aggregate walks the log (a root followed by its children) and derives
// the per-transaction sums. Self time is the root minus its children.
func (l *spanLog) aggregate() clientTimes {
	var ct clientTimes
	for i := 0; i < len(l.spans); {
		root := l.spans[i]
		var exec, commit int64
		j := i + 1
		for ; j < len(l.spans) && l.spans[j].parent == root.id; j++ {
			d := l.spans[j].end - l.spans[j].start
			switch l.spans[j].kind {
			case spanGet:
				ct.get = append(ct.get, d)
				exec += d
			case spanPut:
				ct.put = append(ct.put, d)
				exec += d
			case spanCommit:
				commit += d
			}
		}
		total := root.end - root.start
		ct.execute = append(ct.execute, exec)
		ct.commit = append(ct.commit, commit)
		ct.self = append(ct.self, total-exec-commit)
		ct.txns = append(ct.txns, total)
		i = j
	}
	for _, s := range [][]int64{ct.get, ct.put, ct.execute, ct.commit, ct.self, ct.txns} {
		slices.Sort(s)
	}
	return ct
}

// check reports the first ill-formed span: a child outside its parent's
// interval, a child of another trace, or a root with a parent.
func (l *spanLog) check() error {
	for _, s := range l.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.id, spanNames[s.kind])
		}
		if s.parent < 0 {
			if s.kind != spanTxn {
				return fmt.Errorf("span %d (%s) has no parent", s.id, spanNames[s.kind])
			}
			continue
		}
		p := l.spans[s.parent]
		if p.kind != spanTxn || p.trace != s.trace {
			return fmt.Errorf("span %d (%s) is parented to span %d of trace %d", s.id, spanNames[s.kind], p.id, p.trace)
		}
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent [%d,%d]", s.id, spanNames[s.kind], s.start, s.end, p.start, p.end)
		}
	}
	return nil
}

// writeTo writes the spans as JSON lines.
func (l *spanLog) writeTo(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		rec := struct {
			Workload string `json:"workload"`
			Trace    uint64 `json:"trace"`
			ID       int32  `json:"id"`
			Parent   int32  `json:"parent"`
			Name     string `json:"name"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
		}{workload, s.trace, s.id, s.parent, spanNames[s.kind], s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageHarvestEvery is how many commits a client lets pass between reads
// of its coordinator's trace ring. The ring keeps 64 traces and each
// coordinator serves one client, so none is lost.
const stageHarvestEvery = 32

// twopcStages are the 2PC stages whose medians the budget sums.
var twopcStages = []obs.Stage{obs.StageExecute, obs.StagePrepare, obs.StageLogForce, obs.StageStabilize, obs.StageCommit}

// stageLog collects the coordinators' per-transaction stage spans (an
// existing export: Coordinator.Tracer().Recent()) for the transactions
// that finish inside a traced window.
type stageLog struct {
	mu   sync.Mutex
	seen map[*obs.Trace]bool
	durs map[obs.Stage][]int64
}

// newStageLog marks the traces already in the rings as seen, so only the
// window's own transactions are collected. Nil when the workload bypasses
// the coordinator.
func newStageLog(r *rig) *stageLog {
	if r.spec.direct {
		return nil
	}
	s := &stageLog{seen: make(map[*obs.Trace]bool), durs: make(map[obs.Stage][]int64)}
	for _, cl := range r.clients {
		for _, tr := range cl.node.Coordinator().Tracer().Recent() {
			s.seen[tr] = true
		}
	}
	return s
}

func (s *stageLog) harvest(n *core.Node) {
	if s == nil {
		return
	}
	recent := n.Coordinator().Tracer().Recent()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tr := range recent {
		if s.seen[tr] {
			continue
		}
		s.seen[tr] = true
		if outcome, _ := tr.Outcome(); outcome != obs.OutcomeCommitted {
			continue
		}
		for _, sp := range tr.Spans() {
			s.durs[sp.Stage] = append(s.durs[sp.Stage], sp.Duration.Nanoseconds())
		}
	}
}

// sorted returns one stage's durations in ascending order.
func (s *stageLog) sorted(stage obs.Stage) []int64 {
	if s == nil {
		return nil
	}
	slices.Sort(s.durs[stage])
	return s.durs[stage]
}
