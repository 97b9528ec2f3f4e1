package erpc

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/seal"
)

// Poller drives an endpoint's event loop from a dedicated goroutine,
// emulating eRPC's per-thread RPC ownership: all handler execution and
// continuation firing happens on the poller goroutine. Polling spins
// while traffic flows and backs off quickly when the port goes quiet so
// that low-core machines are not monopolized.
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

// loop runs the event loop until Stop. With a ChannelTransport the loop
// is event-driven: it spins through bursts while traffic flows and then
// blocks on packet arrival or transmit-queue wakeups — no sleeps, no
// idle latency. Plain transports fall back to adaptive sleep-polling.
func (p *Poller) loop() {
	defer p.wg.Done()
	ct, eventDriven := p.ep.cfg.Transport.(ChannelTransport)
	idle := 0
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if n := p.ep.RunOnce(); n > 0 {
			idle = 0
			continue
		}
		if eventDriven {
			select {
			case <-p.stop:
				return
			case <-p.ep.TxNotify():
				// Transmit work arrived; next RunOnce flushes it.
			case pkt, ok := <-ct.RecvCh():
				if !ok {
					return
				}
				p.ep.HandlePacket(pkt.From, pkt.Data)
				// Secure dispatch does not retain the wire buffer (see
				// RunOnce); recycle it, decode failures included.
				// Plaintext dispatch takes ownership (payloads alias the
				// buffer), so it falls to the GC.
				if p.ep.codec != nil {
					pkt.Release()
				}
			}
			continue
		}
		idle++
		switch {
		case idle <= 8:
			runtime.Gosched()
		case idle <= 64:
			time.Sleep(5 * time.Microsecond)
		default:
			time.Sleep(50 * time.Microsecond)
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
