package twopc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// move is one event through step: the effects it must return, rendered
// by renderFx, and the phase it must leave.
type move struct {
	ev    event
	want  string
	phase phase
}

var (
	errLost = errors.New("lost")
	yes     = []byte{voteYes}
	ro      = []byte{voteReadOnly}
)

func replies(resps ...[]byte) event { return event{kind: evDone, resps: resps} }

var (
	done     = event{kind: evDone}
	failed   = event{kind: evDone, err: errLost}
	finished = event{kind: evDone, err: errLost, finished: true}
)

func ctl(req uint8) event { return event{kind: evControl, req: req} }

// stepTable is every transition the runtime produces, as sequences of
// events from a starting state. Within a sequence, an event that follows
// a completing effect (send, append, stabilize, local) is its completion.
var stepTable = []struct {
	name  string
	from  txState
	moves []move
}{
	// Live commits.
	{"read-only votes", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, readers: []string{"a", "b"}}, "stage prepare; send prepare [a b]", cReadVote},
		{replies(ro, ro), "answer committed", cDone},
	}},
	{"empty", txState{}, []move{
		{event{kind: evCommit}, `answer committed "empty"`, cDone},
	}},
	{"sole writer", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"b"}, readers: []string{"a"}}, "stage prepare; send prepare [a]", cReadVote},
		{replies(ro), "stage commit; send one-phase [b]", cOnePhase},
		{replies(nil), "answer committed", cDone},
	}},
	{"two-phase commit", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b", "c"}, writers: []string{"a", "b"}}, "stage prepare; note pending; send prepare [a b c]", cVote},
		{replies(yes, yes, ro), "stage log-force; append commit [a b]", cDecideLog},
		{done, "stage counter-stabilize; stabilize", cStabilize},
		{done, "note commit; stage commit; push commit [a b]; answer committed", cDone},
	}},
	{"two-phase, every writer votes read-only", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"a", "b"}}, "stage prepare; note pending; send prepare [a b]", cVote},
		{replies(ro, ro), `note commit; answer committed "readonly"`, cDone},
	}},

	// Each abort cause.
	{"client rollback", txState{}, []move{
		{event{kind: evRollback, parts: []string{"a"}}, `count twopc.abort.client_rollback; stage abort; send abort [a]; answer aborted "client_rollback"`, cDone},
	}},
	{"client rollback, no participant", txState{}, []move{
		{event{kind: evRollback}, `count twopc.abort.client_rollback; answer aborted "client_rollback"`, cDone},
	}},
	{"fail-stopped Clog, one writer", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a"}, writers: []string{"a"}, err: errLost}, `stage prepare; stage abort; send abort [a]; count twopc.abort.prepare_failed; answer aborted "prepare_failed" err`, cDone},
	}},
	{"fail-stopped Clog, two writers", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"a", "b"}, err: errLost}, `stage prepare; stage abort; send abort [a b]; count twopc.abort.prepare_failed; answer aborted "prepare_failed" err`, cDone},
	}},
	{"a reader votes no", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"b"}, readers: []string{"a"}}, "stage prepare; send prepare [a]", cReadVote},
		{failed, `stage abort; send abort [a b]; count twopc.abort.prepare_failed; answer aborted "prepare_failed" err`, cDone},
	}},
	{"one-phase commit unanswered", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a"}, writers: []string{"a"}}, "stage prepare; send prepare []", cReadVote},
		{replies(), "stage commit; send one-phase [a]", cOnePhase},
		{failed, `stage abort; send abort [a]; count twopc.abort.prepare_failed; answer indeterminate "one_phase_failed" err`, cDone},
	}},
	// Before the commit decision is appended, a failure is a definite
	// abort, sent once and logged nowhere.
	{"a participant votes no", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"a", "b"}}, "stage prepare; note pending; send prepare [a b]", cVote},
		{failed, `note abort; stage abort; send abort [a b]; count twopc.abort.prepare_failed; answer aborted "prepare_failed" err`, cDone},
	}},
	// After it, nothing contradicts the decision: no abort is sent.
	{"decision not logged", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"a", "b"}}, "stage prepare; note pending; send prepare [a b]", cVote},
		{replies(yes, yes), "stage log-force; append commit [a b]", cDecideLog},
		{failed, `count twopc.abort.log_append; answer indeterminate "decision_log_failed" err`, cDone},
	}},
	// A failed wait pushes commit once the token is stable after all.
	{"decision never stable", txState{}, []move{
		{event{kind: evCommit, parts: []string{"a", "b"}, writers: []string{"a", "b"}}, "stage prepare; note pending; send prepare [a b]", cVote},
		{replies(yes, yes), "stage log-force; append commit [a b]", cDecideLog},
		{done, "stage counter-stabilize; stabilize", cStabilize},
		{failed, `count twopc.abort.stabilize_timeout; push commit [a b]; answer indeterminate "stabilize_timeout" err`, cDone},
	}},

	// The participant.
	{"prepare", txState{phase: pActive}, []move{
		{ctl(ReqPrepare), "local prepare", pActive},
		{done, "count twopc.part.prepares; answer yes", pPrepared},
		{ctl(ReqPrepare), "answer yes", pPrepared},
		{ctl(ReqCommit), "local commit-prepared", pPrepared},
		{done, "count twopc.part.commits; answer", pDone},
	}},
	{"prepare fails", txState{phase: pActive}, []move{
		{ctl(ReqPrepare), "local prepare", pActive},
		{failed, "local rollback; count twopc.part.prepare_noes; answer err", pDone},
	}},
	{"a reader's prepare", txState{phase: pActive, readOnly: true}, []move{
		{ctl(ReqPrepare), "local rollback; count twopc.part.readonly_votes; answer read-only", pDone},
	}},
	{"unknown part", txState{phase: pUnknown}, []move{
		{ctl(ReqPrepare), "count twopc.part.prepare_noes; answer err", pUnknown},
		{ctl(ReqCommitOnePhase), "answer err", pUnknown},
		{ctl(ReqCommit), "answer", pUnknown},
		{ctl(ReqAbort), "answer", pUnknown},
	}},
	{"one-phase commit", txState{phase: pActive}, []move{
		{ctl(ReqCommitOnePhase), "local commit-one-phase", pActive},
		{done, "count twopc.part.one_phase; answer", pDone},
	}},
	{"one-phase commit of a finished part", txState{phase: pActive}, []move{
		{ctl(ReqCommitOnePhase), "local commit-one-phase", pActive},
		{finished, "answer err", pActive},
	}},
	{"commit of an unprepared part", txState{phase: pActive}, []move{
		{ctl(ReqCommit), "answer err", pActive},
	}},
	{"commit another decision finished", txState{phase: pPrepared}, []move{
		{ctl(ReqCommit), "local commit-prepared", pPrepared},
		{finished, "answer", pPrepared},
	}},
	{"abort of an open part", txState{phase: pActive}, []move{
		{ctl(ReqAbort), "local rollback", pActive},
		{done, "count twopc.part.aborts; answer", pDone},
	}},
	{"abort of a prepared part", txState{phase: pPrepared}, []move{
		{ctl(ReqAbort), "local abort-prepared", pPrepared},
		{done, "count twopc.part.aborts; answer", pDone},
	}},
	{"janitor tick, unprepared", txState{phase: pActive}, []move{
		{event{kind: evTick}, "local rollback; count twopc.part.reclaims", pDone},
	}},
	// A prepared part resolves by status query: at boot or promotion
	// (ResolveRecovered), on a ReqResolve notice, or on the janitor tick
	// when its decision's push never came. A decision in the reply enters
	// as that decision's control message; pending or no reply changes
	// nothing, and the next tick asks again.
	{"janitor tick, prepared", txState{phase: pPrepared}, []move{
		{event{kind: evTick}, "query", pPrepared},
		{ctl(ReqCommit), "local commit-prepared", pPrepared},
		{done, "count twopc.part.commits; answer", pDone},
	}},
	{"janitor tick, prepared, answered pending", txState{phase: pPrepared}, []move{
		{event{kind: evTick}, "query", pPrepared},
		{event{kind: evTick}, "query", pPrepared},
	}},
	// No stable commit decision (only the prepares went out, or the
	// decision was in a dropped Clog tail): the answer is abort.
	{"prepare only: presumed abort", txState{phase: pPrepared}, []move{
		{event{kind: evTick}, "query", pPrepared},
		{ctl(ReqAbort), "local abort-prepared", pPrepared},
		{done, "count twopc.part.aborts; answer", pDone},
	}},
	{"restored from the WAL, resolved by status", txState{phase: pUnknown}, []move{
		{event{kind: evRestored}, "count twopc.part.restored", pPrepared},
		{ctl(ReqCommit), "local commit-prepared", pPrepared},
		{done, "count twopc.part.commits; answer", pDone},
	}},
	{"restored, status abort", txState{phase: pUnknown}, []move{
		{event{kind: evRestored}, "count twopc.part.restored", pPrepared},
		{ctl(ReqAbort), "local abort-prepared", pPrepared},
		{done, "count twopc.part.aborts; answer", pDone},
	}},
}

// completing is the set of effects whose completion is fed back.
var completing = map[fxKind]bool{fxSend: true, fxAppend: true, fxStabilize: true, fxLocal: true}

// TestStepTransitions drives step through stepTable with no endpoint, log
// or fiber: each move must return exactly its effects and leave its
// phase, and a completion (evDone) must follow, and only follow, a move
// whose last effect completes.
func TestStepTransitions(t *testing.T) {
	for _, tc := range stepTable {
		t.Run(tc.name, func(t *testing.T) {
			s, awaiting := tc.from, false
			for i, m := range tc.moves {
				if (m.ev.kind == evDone) != awaiting {
					t.Fatalf("move %d: event %d, awaiting a completion: %v", i, m.ev.kind, awaiting)
				}
				fx := step(&s, &m.ev, nil)
				if len(fx) > maxEffects {
					t.Errorf("move %d: %d effects, more than maxEffects", i, len(fx))
				}
				if got := renderFx(s, fx); got != m.want {
					t.Errorf("move %d: effects\n got  %s\n want %s", i, got, m.want)
				}
				if s.phase != m.phase {
					t.Errorf("move %d: phase %d, want %d", i, s.phase, m.phase)
				}
				awaiting = len(fx) > 0 && completing[fx[len(fx)-1].kind]
			}
			if awaiting {
				t.Error("the sequence ends awaiting a completion")
			}
		})
	}
}

// renderFx renders effects as the table states them; an answer renders
// what s carries.
func renderFx(s txState, fx []effect) string {
	reqs := map[uint8]string{ReqPrepare: "prepare", ReqCommit: "commit", ReqAbort: "abort", ReqCommitOnePhase: "one-phase"}
	ops := map[uint8]string{ReqPrepare: "prepare", ReqCommit: "commit-prepared", ReqCommitOnePhase: "commit-one-phase", ReqAbort: "abort-prepared", opRollback: "rollback"}
	outcomes := map[TxnOutcome]string{TxnCommitted: " committed", TxnAborted: " aborted", TxnIndeterminate: " indeterminate"}
	out := make([]string, len(fx))
	for i, e := range fx {
		switch e.kind {
		case fxStage:
			out[i] = "stage " + e.name
		case fxCount:
			out[i] = "count " + e.name
		case fxSend:
			out[i] = fmt.Sprintf("send %s %v", reqs[e.code], e.to)
		case fxPush:
			out[i] = fmt.Sprintf("push %s %v", reqs[e.code], e.to)
		case fxAppend:
			out[i] = fmt.Sprintf("append %s %v", map[uint8]string{clogDecision: "commit"}[e.code], e.to)
		case fxStabilize:
			out[i] = "stabilize"
		case fxNote:
			out[i] = "note " + map[uint8]string{StatusCommit: "commit", StatusAbort: "abort", StatusPending: "pending"}[e.code]
		case fxLocal:
			out[i] = "local " + ops[e.code]
		case fxQuery:
			out[i] = "query"
		case fxAnswer:
			out[i] = "answer" + outcomes[s.outcome]
			if s.reason != "" {
				out[i] += fmt.Sprintf(" %q", s.reason)
			}
			switch {
			case len(s.resp) == 0:
			case s.resp[0] == voteYes:
				out[i] += " yes"
			case s.resp[0] == voteReadOnly:
				out[i] += " read-only"
			}
			if s.err != nil {
				out[i] += " err"
			}
		}
	}
	return strings.Join(out, "; ")
}
