package fibers

import (
	"sync"
	"time"
)

// pause is how long a polling waiter takes its thread off the CPU, so that
// pollers and handlers run on saturated or low-core machines.
const pause = 20 * time.Microsecond

// Wait is the one wait of the request lifecycle — "poll for replies
// and/or yield" (§VII-A, §VII-C). It returns true once ready reports
// true and false if the deadline passes first. Call sites pass what
// varies between them; the policy is fixed here:
//
//   - ready is the completion poll. It is polled once more after the
//     deadline has passed, so a completion that lands during the final
//     poll still wins.
//   - wake, when non-nil, receives (or is closed) whenever ready may have
//     turned true. A goroutine then blocks on it under a pooled timer
//     instead of polling: zero spin.
//   - deadline is the zero time for a wait that something else bounds.
//   - yield, when non-nil, is the calling fiber's Yield. A fiber must not
//     block its worker thread, so it polls, yields between polls, and
//     pauses the worker every 64th fruitless yield. A goroutine with no
//     wake channel polls at the pause interval.
func Wait(ready func() bool, wake <-chan struct{}, deadline time.Time, yield func()) bool {
	if yield == nil && wake != nil {
		return block(ready, wake, deadline)
	}
	for spins := 1; !ready(); spins++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ready()
		}
		if yield != nil {
			yield()
		}
		if yield == nil || spins%64 == 0 {
			time.Sleep(pause)
		}
	}
	return true
}

// block is Wait's goroutine arm.
func block(ready func() bool, wake <-chan struct{}, deadline time.Time) bool {
	if ready() {
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
			if ready() {
				return true
			}
		case <-expired:
			return ready()
		}
	}
}

// timerPool recycles deadline timers. A timer goes back stopped and
// drained, so a pooled timer's channel is always empty.
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
		// Already fired (consumed by the wait, or racing this Stop): drain
		// so the next acquire does not observe a stale tick.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}
