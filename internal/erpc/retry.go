package erpc

import (
	"time"

	"treaty/internal/fibers"
)

// The default rungs of the retry ladder: a lost datagram is retried
// after 25 ms, doubling up to 400 ms. A site passes other rungs only for
// a reason it states.
const (
	RetryBase = 25 * time.Millisecond
	RetryCap  = 400 * time.Millisecond
)

// Retry is one walk up the retry ladder: the bounded exponential backoff
// every re-sent request in the system paces itself by, and the one place
// that counts them (Stats.Retries, "<prefix>.req.retries").
//
// Only idempotent requests may be retried (2PC status queries, decision
// pushes, ship groups, counter rounds): a request that timed out may
// still have executed remotely. Every attempt needs a fresh operation id
// (NextOpID): the receiver's replay cache answers a repeated
// (node, tx, op) tuple with the cached wire reply, which carries the
// original request id — an id the sender deregistered when the first
// attempt timed out, so that reply would land as stale.
type Retry struct {
	ep         *Endpoint
	left       int
	delay, max time.Duration
	f          *fibers.Fiber
}

// Retry starts a ladder allowing attempts tries in total, waiting base
// before the second and doubling up to max. f, when non-nil, is the
// calling fiber: it waits out a rung parked, its worker running other
// fibers meanwhile.
func (ep *Endpoint) Retry(attempts int, base, max time.Duration, f *fibers.Fiber) Retry {
	return Retry{ep: ep, left: attempts - 1, delay: base, max: max, f: f}
}

// Next is called after a failed attempt. It reports false if the budget
// is spent; otherwise it counts one retry, waits out the current rung
// and climbs to the next.
func (r *Retry) Next() bool {
	if r.left <= 0 {
		return false
	}
	r.left--
	r.ep.retries.Add(1)
	r.f.Park(func() { time.Sleep(r.delay) })
	r.delay = min(2*r.delay, r.max)
	return true
}
