package fibers

import (
	"sync"
	"time"
)

// pause is how often a waiter with no wake source looks again.
const pause = 20 * time.Microsecond

// Wait is the one wait of the request lifecycle (§VII-A, §VII-C). It
// returns true once ready reports true and false if the deadline passes
// first. Call sites pass what varies between them; the policy is fixed
// here and the same for every caller: block on the wake source under a
// pooled timer until ready or the deadline.
//
//   - ready is the completion check. It is made once more after the
//     deadline, so a completion that lands during the final check wins,
//     and from a parked fiber's goroutine, so it must be safe anywhere.
//     Nil when wake is closed rather than sent to: the close completes.
//   - wake receives (or is closed) whenever ready may have turned true.
//     Nil only for state that announces nothing (a drain count), which
//     is looked at every pause.
//   - deadline is the zero time for a wait that something else bounds.
//   - f is the waiting fiber, nil on a goroutine. A fiber must not block
//     its worker thread, so it waits parked (Fiber.Park).
func Wait(ready func() bool, wake <-chan struct{}, deadline time.Time, f *Fiber) (ok bool) {
	if ready != nil && ready() {
		return true
	}
	f.Park(func() { ok = block(ready, wake, deadline) })
	return ok
}

// block waits on the calling goroutine.
func block(ready func() bool, wake <-chan struct{}, deadline time.Time) bool {
	if wake == nil {
		for !ready() {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return ready()
			}
			time.Sleep(pause)
		}
		return true
	}
	var expired <-chan time.Time // nil without a deadline: never fires
	if !deadline.IsZero() {
		// A pooled timer, not time.After: under this module's go 1.22 line
		// an unfired time.After stays on the heap for its whole duration
		// (seconds of RPC timeout), and at RPC rates dominates it.
		timer := acquireTimer(time.Until(deadline))
		defer releaseTimer(timer)
		expired = timer.C
	}
	for {
		select {
		case <-wake:
			if ready == nil || ready() {
				return true
			}
		case <-expired:
			return ready != nil && ready()
		}
	}
}

// timerPool recycles deadline timers. A timer goes back stopped with its
// channel empty.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
			// Fired and no tick: consumed by the wait, or still on its way
			// to expire the next user's deadline at once. Drop the timer.
			return
		}
	}
	timerPool.Put(t)
}
