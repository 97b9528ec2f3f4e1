package erpc

import (
	"fmt"
	"sync"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/seal"
)

// Poller drives an endpoint's event loop from a dedicated goroutine,
// emulating eRPC's per-thread RPC ownership: all handler execution and
// continuation firing happens on the poller goroutine, the only one that
// handles a received packet and so the one that pays its receive cost.
type Poller struct {
	ep   *Endpoint
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartPoller begins polling ep.
func StartPoller(ep *Endpoint) *Poller {
	p := &Poller{ep: ep, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.loop()
	return p
}

// loop runs the event loop until Stop or until the transport closes: it
// runs through bursts while traffic flows, then blocks on packet arrival
// or a transmit-queue wakeup — no sleeps, no idle latency.
func (p *Poller) loop() {
	defer p.wg.Done()
	rx := p.ep.cfg.Transport.Recv()
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if p.ep.RunOnce() > 0 {
			continue
		}
		select {
		case <-p.stop:
			return
		case <-p.ep.txNotify:
			// Transmit work arrived; next RunOnce flushes it.
		case pkt, ok := <-rx:
			if !ok {
				return
			}
			p.ep.receive(pkt)
		}
	}
}

// Stop halts the poller and waits for the loop to exit.
func (p *Poller) Stop() {
	close(p.stop)
	p.wg.Wait()
}

// ErrTimeout indicates a Call did not complete in time.
var ErrTimeout = fmt.Errorf("erpc: request timed out")

// Call enqueues a request and waits on its completion channel until the
// response arrives or timeout passes: a goroutine (nil f) directly, the
// fiber f parked (fibers.Wait). The endpoint's event loop must be running
// (Poller or an external RunOnce driver).
//
// A timed-out call is abandoned: its pending entry is deregistered so
// the map cannot grow without bound, and a response that arrives later
// is counted as stale rather than delivered.
func Call(ep *Endpoint, to string, reqType uint8, md seal.MsgMetadata, payload []byte, timeout time.Duration, f *fibers.Fiber) ([]byte, error) {
	pend := ep.Enqueue(to, reqType, md, payload, nil)
	fibers.Wait(pend.Done, pend.ch, time.Now().Add(timeout), f)
	if !ep.settle(pend) {
		return nil, fmt.Errorf("%w: %s type=%d", ErrTimeout, to, reqType)
	}
	if err := pend.Err(); err != nil {
		return nil, err
	}
	return pend.Response(), nil
}

// settle ends a caller's wait on p and reports whether p holds an answer
// (a response, a remote error or ErrClosed). A request still outstanding
// is abandoned, so no wait leaves an entry registered; if the response
// wins the race against Abandon, its completion is imminent and is
// waited out and delivered.
func (ep *Endpoint) settle(p *Pending) bool {
	if p.Done() {
		return true
	}
	if ep.Abandon(p) {
		return false
	}
	<-p.ch
	return true
}
