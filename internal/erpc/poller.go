package erpc

import "sync"

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
