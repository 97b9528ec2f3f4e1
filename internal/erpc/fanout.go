package erpc

import (
	"errors"
	"fmt"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/seal"
)

// ErrTimeout answers a request that had not been answered when its wait
// ended.
var ErrTimeout = errors.New("erpc: request timed out")

// Reply is one destination's outcome in a Fan: the response payload, or
// the remote error, ErrClosed, or ErrTimeout for a destination that had
// not answered when Wait returned.
type Reply struct {
	Resp []byte
	Err  error
}

// Fan is a set of requests that went out together: Send enqueues them,
// Wait waits for their answers and settles them.
type Fan struct {
	ep      *Endpoint
	addrs   []string
	reqType uint8
	// wake is the level-triggered wakeup the requests share (capacity 1):
	// a completion that finds it full has already been announced.
	wake    chan struct{}
	pending []*Pending
}

// Send enqueues one request to every address, each under a fresh
// operation id, and returns without waiting. md supplies the transaction
// id, operation type and epoch. The caller must Wait on the fan.
func Send(ep *Endpoint, addrs []string, reqType uint8, md seal.MsgMetadata, payload []byte) *Fan {
	fan := &Fan{ep: ep, addrs: addrs, reqType: reqType, wake: make(chan struct{}, 1), pending: make([]*Pending, len(addrs))}
	notify := func(*Pending) {
		select {
		case fan.wake <- struct{}{}:
		default:
		}
	}
	for i, to := range addrs {
		md.OpID = ep.NextOpID()
		fan.pending[i] = ep.Enqueue(to, reqType, md, payload, notify)
	}
	return fan
}

// Wait returns when need of the fan's requests have answered without
// error, when all have answered, or when timeout passes, whichever is
// first: a goroutine (nil f) waits directly, the fiber f parked
// (fibers.Wait). The endpoint's event loop must be running. Requests
// still outstanding at that point are abandoned: deregistered, counted as
// cancelled, answered ErrTimeout, and a late response counts as stale.
// So a fan leaves nothing registered on the endpoint, however many
// destinations are dead. A response that won the race against the
// abandon is mid-completion; it is waited out and delivered. Replies are
// indexed like Send's addrs.
func (fan *Fan) Wait(need int, timeout time.Duration, f *fibers.Fiber) []Reply {
	enough := func() bool {
		answered, ok := 0, 0
		for _, p := range fan.pending {
			if p.Done() {
				answered++
				if p.err == nil {
					ok++
				}
			}
		}
		return ok >= need || answered == len(fan.pending)
	}
	fibers.Wait(enough, fan.wake, time.Now().Add(timeout), f)
	ep := fan.ep
	replies := make([]Reply, len(fan.pending))
	for i, p := range fan.pending {
		if !p.Done() {
			ep.mu.Lock()
			_, outstanding := ep.pending[p.reqID]
			delete(ep.pending, p.reqID)
			ep.mu.Unlock()
			if outstanding {
				ep.cancelled.Add(1)
				replies[i].Err = fmt.Errorf("%w: %s type=%d", ErrTimeout, fan.addrs[i], fan.reqType)
				continue
			}
		}
		<-p.ch
		replies[i] = Reply{Resp: p.resp, Err: p.err}
	}
	return replies
}

// Call sends one request and waits for its answer: Send to one address,
// then Wait for it. A timed-out call is abandoned like any fan's request.
func Call(ep *Endpoint, to string, reqType uint8, md seal.MsgMetadata, payload []byte, timeout time.Duration, f *fibers.Fiber) ([]byte, error) {
	r := Send(ep, []string{to}, reqType, md, payload).Wait(1, timeout, f)[0]
	return r.Resp, r.Err
}
