package erpc

import (
	"time"

	"treaty/internal/fibers"
	"treaty/internal/seal"
)

// Reply is one destination's outcome in a Fanout: the response payload,
// or the remote error, ErrClosed, or ErrTimeout for a destination that
// had not answered when the fan-out returned.
type Reply struct {
	Resp []byte
	Err  error
}

// Fanout sends one request to every address in parallel — enqueue all,
// each under a fresh operation id, then wait — and returns when need of
// them have answered without error, when all have answered, or when
// timeout passes, whichever is first. Requests still outstanding at that
// point are abandoned (their late responses count as stale), so a
// fan-out leaves nothing registered on the endpoint, however many
// destinations are dead. Replies are indexed like addrs. md supplies the
// transaction id, operation type and epoch; f is as for Call.
func Fanout(ep *Endpoint, addrs []string, reqType uint8, md seal.MsgMetadata, payload []byte, need int, timeout time.Duration, f *fibers.Fiber) []Reply {
	// Level-triggered wakeup shared by all the requests (capacity 1): a
	// completion that finds it full has already been announced.
	wake := make(chan struct{}, 1)
	notify := func(*Pending) {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	pending := make([]*Pending, len(addrs))
	for i, to := range addrs {
		md.OpID = ep.NextOpID()
		pending[i] = ep.Enqueue(to, reqType, md, payload, notify)
	}
	enough := func() bool {
		answered, ok := 0, 0
		for _, p := range pending {
			if p.Done() {
				answered++
				if p.err == nil {
					ok++
				}
			}
		}
		return ok >= need || answered == len(pending)
	}
	fibers.Wait(enough, wake, time.Now().Add(timeout), f)
	replies := make([]Reply, len(pending))
	for i, p := range pending {
		ep.settle(p)
		replies[i] = Reply{Resp: p.resp, Err: p.err}
	}
	return replies
}
