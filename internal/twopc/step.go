package twopc

import (
	"errors"
	"fmt"
)

// The commit protocol is one pure transition function, step, over one
// global transaction's state in either role. It performs no I/O: it
// returns the effects to perform, in order, and an interpreter
// (DistTxn.run for the coordinator, Participant.run for a participant)
// performs them and feeds the last effect's completion back as the next
// event. Live commit and abort, and a participant's restore and its
// resolution by status query, are sequences of events through it;
// DESIGN.md "The commit protocol" is its table.

// clogDecision is the Clog's one record kind: a commit decision (Fig. 2
// steps 6-7) and the writers it goes to. The coordinator logs nothing
// else: no prepare-start record (step 5), since an id without a stable
// commit decision is presumed aborted. Kind 1 was that record's.
const clogDecision uint8 = 2

// phase is where a transaction stands in its role's protocol.
type phase uint8

const (
	// Coordinator.
	cExecute   phase = iota // operations run; Commit or Rollback is next
	cReadVote               // ≤ 1 writer: the readers' prepares are out
	cOnePhase               // the sole writer's one-phase commit is out
	cVote                   // ≥ 2 writers: the prepares are out
	cDecideLog              // the commit decision is appending
	cStabilize              // the decision's counter round is awaited
	cDone                   // answered; nothing owed
	// Participant.
	pUnknown  // no local part: never opened, finished or reclaimed
	pActive   // the local transaction is open
	pPrepared // its prepare is stable: the outcome is the coordinator's
	pDone     // finished here: the local part is dropped
)

// txState is one global transaction's protocol state in one role.
type txState struct {
	phase phase
	// Coordinator: parts are the participants, writers whom the decision
	// goes to; outcome and reason classify the answer.
	parts, writers []string
	outcome        TxnOutcome
	reason         string
	// Participant: readOnly is true while the local part wrote nothing,
	// req is the control message whose local effect is in flight, resp
	// the answer's body.
	readOnly bool
	req      uint8
	resp     []byte
	// err is what the answer carries, in either role.
	err error
}

// evKind names an event.
type evKind uint8

const (
	evCommit   evKind = iota + 1 // the client commits: parts, writers, readers; err is the Clog's fail-stop error
	evRollback                   // the client rolls back: parts
	evDone                       // the last effect completed: err; a fan-out's resps; a local effect's finished
	evControl                    // a control message arrived, or a status reply decided one: req
	evTick                       // the janitor found the part idle
	evRestored                   // boot or promotion found the part's prepare record in the WAL
)

// event is one input to step.
type event struct {
	kind                    evKind
	req                     uint8
	parts, writers, readers []string
	err                     error
	resps                   [][]byte // a fan-out's replies, in participant order
	finished                bool     // the local transaction was already finished (txn.ErrTxnDone)
}

// fxKind names an effect. A completing effect's completion is the next
// evDone when it is the step's last effect.
type fxKind uint8

const (
	fxStage     fxKind = iota + 1 // enter stage name on a live transaction's trace
	fxCount                       // count the counter name
	fxSend                        // fan request code out to to; completing
	fxPush                        // once the decision's token is stable, push decision code to to, re-sending to the unanswered
	fxAppend                      // append a Clog record of kind code, naming to; completing
	fxStabilize                   // wait for the appended decision's counter round; completing
	fxNote                        // publish the state to the status table under status code
	fxLocal                       // code's engine call on the participant's local transaction; completing
	fxQuery                       // ask the coordinator for the decision; a decision answered enters as its evControl
	fxAnswer                      // answer with the state's outcome, reason, resp and err
)

// effect is one output of step.
type effect struct {
	kind fxKind
	code uint8
	to   []string
	name string
}

// maxEffects is the most effects one step returns (TestStepTransitions
// checks it): the interpreters' buffers hold them without a heap slice.
const maxEffects = 5

// opRollback is fxLocal's code for a rollback; any other code is its
// control message's engine call (ReqAbort's is a prepared part's abort).
const opRollback uint8 = 0

// step advances s by ev and returns fx with the effects to perform
// appended, in order. It reads only s and ev and writes only s; both go
// by pointer so that the interpreters' frames, which sit under every
// local engine call on a fiber's stack, stay small.
func step(s *txState, ev *event, fx []effect) []effect {
	if s.phase >= pUnknown {
		return s.participate(ev, fx)
	}
	return s.coordinate(ev, fx)
}

// coordinate is the coordinator's half of step (Fig. 2 and §VI).
func (s *txState) coordinate(ev *event, fx []effect) []effect {
	switch {
	case ev.kind == evRollback: // nothing prepared: nothing to log
		s.parts = ev.parts
		fx = append(fx, count("twopc.abort.client_rollback"))
		if len(s.parts) > 0 {
			fx = append(fx, stage("abort"), send(ReqAbort, s.parts))
		}
		return s.answer(fx, TxnAborted, "client_rollback", nil)

	// Commit picks its path by the number of writers. With none, nothing
	// is logged: every participant votes read-only. With one, the readers'
	// prepares come first, then the writer commits in one phase and its
	// stabilized WAL record is the decision. With more, it is Fig. 2, less
	// step 5's prepare-start record: until a commit decision is stable, a
	// status query answers pending from the live state, and after a crash
	// an id with no stable decision is presumed aborted.
	case ev.kind == evCommit && len(ev.parts) == 0:
		return s.answer(fx, TxnCommitted, "empty", nil)
	case ev.kind == evCommit && ev.err != nil: // a fail-stopped Clog commits nothing
		s.parts = ev.parts
		return s.abort(append(fx, stage("prepare")), "twopc.abort.prepare_failed", TxnAborted, "prepare_failed", ev.err)
	case ev.kind == evCommit && len(ev.writers) > 1:
		s.phase, s.parts = cVote, ev.parts
		return append(fx, stage("prepare"), note(StatusPending), send(ReqPrepare, s.parts))
	case ev.kind == evCommit:
		s.phase, s.parts, s.writers = cReadVote, ev.parts, ev.writers
		return append(fx, stage("prepare"), send(ReqPrepare, ev.readers))
	case s.phase == cReadVote && ev.err != nil: // an unknown reader released its locks early
		return s.abort(fx, "twopc.abort.prepare_failed", TxnAborted, "prepare_failed", ev.err)
	case s.phase == cReadVote && len(s.writers) == 1:
		s.phase = cOnePhase
		return append(fx, stage("commit"), send(ReqCommitOnePhase, s.writers))
	case s.phase == cOnePhase && ev.err != nil: // sent once; its loss is indeterminate
		return s.abort(fx, "twopc.abort.prepare_failed", TxnIndeterminate, "one_phase_failed", ev.err)
	case s.phase == cReadVote || s.phase == cOnePhase:
		return s.answer(fx, TxnCommitted, "", nil)

	// Two-phase commit. Until the commit decision is appended, a failure
	// is a definite abort, sent once and logged nowhere: a participant that
	// missed it asks, and an id without a commit decision answers abort.
	case s.phase == cVote && ev.err != nil:
		return s.abort(append(fx, note(StatusAbort)), "twopc.abort.prepare_failed", TxnAborted, "prepare_failed", ev.err)
	case s.phase == cVote:
		// Read-only participants voted and released at prepare; only
		// writers need the decision (the read-only 2PC optimization).
		s.writers = nil
		for i, addr := range s.parts {
			if len(ev.resps[i]) == 0 || ev.resps[i][0] != voteReadOnly {
				s.writers = append(s.writers, addr)
			}
		}
		if len(s.writers) == 0 { // nothing to decide or make durable
			return s.answer(append(fx, note(StatusCommit)), TxnCommitted, "readonly", nil)
		}
		// Step 6: decide commit and stabilize the decision. The append
		// returns once the decision's group is forced.
		s.phase = cDecideLog
		return append(fx, stage("log-force"), effect{kind: fxAppend, code: clogDecision, to: s.writers})

	// Once the commit decision is appended, nothing contradicts it: only
	// its stable prefix decides, live or after a restart. A failure from
	// here on is indeterminate, no abort is sent, and a status query
	// answers pending until the restart. A decision whose wait failed is
	// pushed if its token stabilizes after all (fxPush waits for it), and
	// left to the restarted Clog if the counter failed.
	case s.phase == cDecideLog && ev.err != nil:
		fx = append(fx, count("twopc.abort.log_append"))
		return s.answer(fx, TxnIndeterminate, "decision_log_failed", fmt.Errorf("%w: decision log failed: %v", ErrAborted, ev.err))
	case s.phase == cDecideLog:
		s.phase = cStabilize
		return append(fx, stage("counter-stabilize"), effect{kind: fxStabilize})
	case s.phase == cStabilize && ev.err != nil:
		fx = append(fx, count("twopc.abort.stabilize_timeout"), effect{kind: fxPush, code: ReqCommit, to: s.writers})
		return s.answer(fx, TxnIndeterminate, "stabilize_timeout", fmt.Errorf("%w: decision stabilization failed: %v", ErrAborted, ev.err))
	case s.phase == cStabilize:
		// Step 7: the decision is stable, so the transaction IS committed
		// even if a commit message is lost. A client is answered now and
		// the commits pushed after; the writers hold their locks until
		// theirs lands, so the client's next transaction reads its writes.
		fx = append(fx, note(StatusCommit), stage("commit"), effect{kind: fxPush, code: ReqCommit, to: s.writers})
		return s.answer(fx, TxnCommitted, "", nil)
	}
	return fx
}

// participate is the participant's half of step (§V-A steps 8-9, §VI).
func (s *txState) participate(ev *event, fx []effect) []effect {
	req := ev.req
	switch {
	case ev.kind == evRestored: // locks re-acquired; the coordinator's decision applies when it arrives
		s.phase = pPrepared
		return append(fx, count("twopc.part.restored"))
	case ev.kind == evTick && s.phase == pActive:
		s.phase = pDone
		return append(fx, local(opRollback), count("twopc.part.reclaims"))
	case ev.kind == evTick: // a prepared part's outcome is the coordinator's: it asks (§VI's query, live)
		return append(fx, effect{kind: fxQuery})
	case ev.kind == evDone:
		return s.settle(ev, fx)

	// A control message. A decision for an unknown or finished part is
	// acknowledged ("If a node has already committed the Tx, this message
	// is ignored", §VI); a prepare or one-phase commit for one fails.
	case s.phase == pUnknown && req == ReqPrepare:
		return s.reply(append(fx, count("twopc.part.prepare_noes")), nil, errors.New("twopc: unknown transaction at prepare"))
	case s.phase == pUnknown && req == ReqCommitOnePhase:
		return s.reply(fx, nil, errors.New("twopc: unknown transaction at one-phase commit"))
	case s.phase == pUnknown:
		return s.reply(fx, nil, nil)
	case req == ReqPrepare && s.phase == pPrepared: // a duplicate prepare
		return s.reply(fx, []byte{voteYes}, nil)
	case req == ReqPrepare && s.readOnly: // releases its locks now; needs no decision
		s.phase = pDone
		return s.reply(append(fx, local(opRollback), count("twopc.part.readonly_votes")), []byte{voteReadOnly}, nil)
	case req == ReqCommit && s.phase != pPrepared:
		return s.reply(fx, nil, errors.New("twopc: commit for unprepared transaction"))
	case req == ReqAbort && s.phase != pPrepared:
		s.req = req
		return append(fx, local(opRollback))
	}
	s.req = req
	return append(fx, local(req))
}

// settle finishes a control message once its local effect completed. A
// prepare answers yes once its record is stable (Prepare waits for it);
// a failed one rolls back and votes no. A part another decision already
// finished acknowledges and is not dropped twice; a one-phase commit of
// one is an error, so a duplicate never commits twice.
func (s *txState) settle(ev *event, fx []effect) []effect {
	switch {
	case s.req == ReqPrepare && ev.err == nil:
		s.phase = pPrepared
		return s.reply(append(fx, count("twopc.part.prepares")), []byte{voteYes}, nil)
	case s.req == ReqPrepare:
		s.phase = pDone
		return s.reply(append(fx, local(opRollback), count("twopc.part.prepare_noes")), nil, ev.err)
	case ev.finished && s.req == ReqCommitOnePhase:
		return s.reply(fx, nil, errors.New("twopc: one-phase commit for a prepared or finished transaction"))
	case ev.finished:
		return s.reply(fx, nil, nil)
	}
	s.phase = pDone
	switch {
	case ev.err != nil:
	case s.req == ReqCommit:
		fx = append(fx, count("twopc.part.commits"))
	case s.req == ReqCommitOnePhase:
		fx = append(fx, count("twopc.part.one_phase"))
	default:
		fx = append(fx, count("twopc.part.aborts"))
	}
	return s.reply(fx, nil, ev.err)
}

// abort ends a transaction that appended no commit decision: the abort
// is sent to every participant once, counted under counter, and logged
// nowhere.
func (s *txState) abort(fx []effect, counter string, outcome TxnOutcome, reason string, err error) []effect {
	fx = append(fx, stage("abort"), send(ReqAbort, s.parts), count(counter))
	return s.answer(fx, outcome, reason, fmt.Errorf("%w: %s: %v", ErrAborted, reason, err))
}

// answer ends the coordinator's work on the transaction.
func (s *txState) answer(fx []effect, outcome TxnOutcome, reason string, err error) []effect {
	s.phase, s.outcome, s.reason, s.err = cDone, outcome, reason, err
	return append(fx, effect{kind: fxAnswer})
}

// reply answers a participant's control message.
func (s *txState) reply(fx []effect, resp []byte, err error) []effect {
	s.resp, s.err = resp, err
	return append(fx, effect{kind: fxAnswer})
}

func stage(name string) effect           { return effect{kind: fxStage, name: name} }
func count(name string) effect           { return effect{kind: fxCount, name: name} }
func send(req uint8, to []string) effect { return effect{kind: fxSend, code: req, to: to} }
func note(status uint8) effect           { return effect{kind: fxNote, code: status} }
func local(op uint8) effect              { return effect{kind: fxLocal, code: op} }
