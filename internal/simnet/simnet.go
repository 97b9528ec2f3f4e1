// Package simnet provides the in-process network substrate Treaty's nodes
// communicate over. It stands in for the paper's 40 GbE testbed fabric and
// plays two roles:
//
//   - A performance model: per-link latency, bandwidth serialization and
//     random loss, so network benchmarks exhibit realistic shape.
//   - The adversary from the threat model (§III): an interposition hook
//     that can drop, delay, corrupt, duplicate, or replay any packet, plus
//     partitions. Treaty must *detect* all of these (integrity/freshness
//     violations) — simnet is how the tests and the adversary example
//     mount the attacks.
//
// Endpoints exchange datagrams; reliability, ordering, and security are
// the job of the layers above (package erpc).
//
// Every packet is accounted for exactly once. With nothing in flight
// (Stats.InFlight):
//
//	Sent + Duplicated == Delivered + DroppedLoss + DroppedAdversary +
//	    DroppedPartition + DroppedOverrun
//
// and every drop returns the packet's pooled buffer.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by this package.
var (
	// ErrAddrInUse indicates a Listen on an already-bound address.
	ErrAddrInUse = errors.New("simnet: address already in use")
	// ErrUnknownAddr indicates a send to an unbound address.
	ErrUnknownAddr = errors.New("simnet: unknown address")
	// ErrClosed indicates use of a closed endpoint or network.
	ErrClosed = errors.New("simnet: closed")
)

// Packet is one datagram in flight.
type Packet struct {
	// From is the sender address.
	From string
	// To is the destination address.
	To string
	// Data is the payload. Receivers own the slice.
	Data []byte
	// buf is the pooled backing array of Data, nil when Data came from
	// the GC heap (hand-built packets, duplicated copies).
	buf *[]byte
}

// Release returns the packet's pooled receive buffer for reuse. Call it
// at most once, after Data is no longer referenced; packets without
// pooled backing ignore it, so consumers that never Release (or can't,
// because they keep the slice) simply fall back to the GC.
func (p Packet) Release() {
	if p.buf != nil {
		pktBufPool.Put(p.buf)
	}
}

// pktBufPool recycles send-side payload copies. Every Endpoint.Send
// copies its payload (the caller may reuse its slice immediately); at
// RPC rates those copies dominate the fabric's allocation profile, so
// release-aware receivers hand them back here.
var pktBufPool sync.Pool

// pooledCopy copies data into a pooled buffer.
func pooledCopy(data []byte) ([]byte, *[]byte) {
	buf, _ := pktBufPool.Get().(*[]byte)
	if buf == nil || cap(*buf) < len(data) {
		b := make([]byte, len(data))
		buf = &b
	}
	d := (*buf)[:len(data)]
	copy(d, data)
	return d, buf
}

// Verdict is an adversary's decision about a packet.
type Verdict struct {
	// Drop discards the packet silently.
	Drop bool
	// Delay adds extra in-flight latency.
	Delay time.Duration
	// Mutate, if non-nil, replaces the payload (tampering).
	Mutate func([]byte) []byte
	// Duplicates is the number of extra copies to deliver (replay).
	Duplicates int
}

// Adversary inspects every packet before delivery and returns a verdict.
// A nil adversary passes everything through. Implementations must be safe
// for concurrent use.
type Adversary interface {
	Interpose(pkt Packet) Verdict
}

// LinkConfig models one direction of a network path.
type LinkConfig struct {
	// Latency is the propagation delay.
	Latency time.Duration
	// BandwidthBps is the link bandwidth in bytes per second; zero means
	// unlimited.
	BandwidthBps int64
	// LossRate is the probability in [0,1) that a packet is dropped.
	LossRate float64
}

// Stats counts network activity.
type Stats struct {
	// Sent counts packets accepted for transmission.
	Sent uint64
	// Duplicated counts the extra copies the adversary injected.
	Duplicated uint64
	// Delivered counts packets handed to receivers.
	Delivered uint64
	// DroppedLoss counts packets dropped by random loss.
	DroppedLoss uint64
	// DroppedAdversary counts packets dropped by the adversary.
	DroppedAdversary uint64
	// DroppedPartition counts packets dropped by partitions.
	DroppedPartition uint64
	// DroppedOverrun counts packets dropped because a link's pipe or the
	// receiver's inbox was full, or the receiver had closed.
	DroppedOverrun uint64
	// BytesDelivered counts delivered payload bytes.
	BytesDelivered uint64
}

// InFlight is the number of packets accepted or duplicated and neither
// delivered nor dropped yet: zero once the links have drained (the
// package comment's law). A snapshot is not one atomic cut, so a reading
// taken under traffic may be off by the packets that moved meanwhile.
func (s Stats) InFlight() int64 {
	return int64(s.Sent + s.Duplicated - s.Delivered - s.DroppedLoss - s.DroppedAdversary -
		s.DroppedPartition - s.DroppedOverrun)
}

// Network is a set of endpoints connected by configurable links.
type Network struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	links     map[[2]string]*link
	defaults  LinkConfig
	adversary Adversary
	parts     map[[2]string]bool
	closed    bool
	quit      chan struct{}
	drainers  sync.WaitGroup
	rng       *rand.Rand
	rngMu     sync.Mutex

	sent             atomic.Uint64
	duplicated       atomic.Uint64
	delivered        atomic.Uint64
	droppedLoss      atomic.Uint64
	droppedAdversary atomic.Uint64
	droppedPartition atomic.Uint64
	droppedOverrun   atomic.Uint64
	bytesDelivered   atomic.Uint64
}

// inlineTransit is the longest transit the fabric does not wait out. OS
// timers cannot resolve below ~100 µs reliably; waiting on them would add
// a millisecond to every packet, and the scheduling delay to the receiver
// supplies at least this much latency anyway. It is the one admit rule of
// a link: a packet of at most this transit with nothing queued ahead of
// it is delivered by its sender, and the drainer delivers a queued packet
// as soon as at most this much of its transit remains.
const inlineTransit = 50 * time.Microsecond

// link carries the per-direction bandwidth serialization state and the
// delivery queue: one drainer goroutine per link delivers packets in
// FIFO order at their scheduled times (modelling an in-order pipe
// without per-packet goroutines).
type link struct {
	cfg LinkConfig
	mu  sync.Mutex
	// busyUntil is when the link's transmitter becomes free.
	busyUntil time.Time
	// queued counts packets handed to the drainer and not yet delivered
	// or dropped. A sender delivers inline only while it is zero, so no
	// packet overtakes one sent before it on the link.
	queued atomic.Int64

	once sync.Once
	q    chan scheduledPkt
}

// scheduledPkt is one in-flight packet.
type scheduledPkt struct {
	pkt Packet
	at  time.Time
	dst *Endpoint
}

// enqueue schedules delivery, starting the drainer on first use. A full
// queue drops the packet (pipe overrun).
func (l *link) enqueue(n *Network, s scheduledPkt) {
	l.once.Do(func() {
		l.q = make(chan scheduledPkt, 8192)
		n.drainers.Add(1)
		go l.drain(n)
	})
	l.queued.Add(1)
	select {
	case l.q <- s:
	default:
		l.queued.Add(-1)
		n.dropOverrun(s.pkt)
	}
}

// drain delivers scheduled packets in order until the network closes.
func (l *link) drain(n *Network) {
	defer n.drainers.Done()
	for {
		select {
		case <-n.quit:
			return
		case s := <-l.q:
			if d := time.Until(s.at); d > inlineTransit {
				select {
				case <-n.quit:
					return
				case <-time.After(d):
				}
			}
			s.dst.deliver(s.pkt, n)
			l.queued.Add(-1)
		}
	}
}

// New creates a network whose links default to cfg. seed makes loss and
// adversarial randomness reproducible.
func New(cfg LinkConfig, seed int64) *Network {
	return &Network{
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]*link),
		defaults:  cfg,
		parts:     make(map[[2]string]bool),
		quit:      make(chan struct{}),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// SetAdversary installs (or clears, with nil) the packet interposer.
func (n *Network) SetAdversary(a Adversary) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.adversary = a
}

// SetLink overrides the link configuration for the from→to direction.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = &link{cfg: cfg}
}

// Partition cuts both directions between a and b.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[[2]string{a, b}] = true
	n.parts[[2]string{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, [2]string{a, b})
	delete(n.parts, [2]string{b, a})
}

// Listen binds addr and returns its endpoint.
func (n *Network) Listen(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	ep := &Endpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan Packet, 4096),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

// Close shuts the network down; all endpoints stop receiving and the
// link drainers exit.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.quit)
	for _, ep := range n.endpoints {
		ep.close()
	}
	n.mu.Unlock()
	n.drainers.Wait()
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:             n.sent.Load(),
		Duplicated:       n.duplicated.Load(),
		Delivered:        n.delivered.Load(),
		DroppedLoss:      n.droppedLoss.Load(),
		DroppedAdversary: n.droppedAdversary.Load(),
		DroppedPartition: n.droppedPartition.Load(),
		DroppedOverrun:   n.droppedOverrun.Load(),
		BytesDelivered:   n.bytesDelivered.Load(),
	}
}

// linkFor returns the (possibly default) link for from→to.
func (n *Network) linkFor(from, to string) *link {
	key := [2]string{from, to}
	n.mu.RLock()
	l, ok := n.links[key]
	n.mu.RUnlock()
	if ok {
		return l
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok = n.links[key]; ok {
		return l
	}
	l = &link{cfg: n.defaults}
	n.links[key] = l
	return l
}

// dropOverrun discards a packet no queue had room for (link pipe or
// inbox full) or whose receiver closed.
func (n *Network) dropOverrun(pkt Packet) {
	n.droppedOverrun.Add(1)
	pkt.Release()
}

// chance samples the seeded RNG.
func (n *Network) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64() < p
}

// send transmits pkt, applying partition, adversary, loss, latency, and
// bandwidth in that order.
func (n *Network) send(pkt Packet) error {
	n.mu.RLock()
	closed := n.closed
	dst, ok := n.endpoints[pkt.To]
	partitioned := n.parts[[2]string{pkt.From, pkt.To}]
	adv := n.adversary
	n.mu.RUnlock()

	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAddr, pkt.To)
	}
	n.sent.Add(1)

	if partitioned {
		n.droppedPartition.Add(1)
		pkt.Release() // dropped frames must not leak their pooled buffer
		return nil    // silent, like a real partition
	}

	copies := 1
	delay := time.Duration(0)
	if adv != nil {
		v := adv.Interpose(pkt)
		if v.Drop {
			n.droppedAdversary.Add(1)
			pkt.Release()
			return nil
		}
		if v.Mutate != nil {
			pkt.Data = v.Mutate(pkt.Data)
		}
		delay += v.Delay
		copies += v.Duplicates
	}

	l := n.linkFor(pkt.From, pkt.To)
	cfg := l.cfg
	if n.chance(cfg.LossRate) {
		n.droppedLoss.Add(1)
		pkt.Release()
		return nil
	}

	// Bandwidth: serialize transmissions on the link.
	var queueDelay time.Duration
	if cfg.BandwidthBps > 0 {
		txTime := time.Duration(float64(len(pkt.Data)) / float64(cfg.BandwidthBps) * float64(time.Second))
		l.mu.Lock()
		now := time.Now()
		if l.busyUntil.Before(now) {
			l.busyUntil = now
		}
		l.busyUntil = l.busyUntil.Add(txTime)
		queueDelay = l.busyUntil.Sub(now)
		l.mu.Unlock()
	}

	total := cfg.Latency + queueDelay + delay
	if copies > 1 {
		n.duplicated.Add(uint64(copies - 1))
	}
	for i := 0; i < copies; i++ {
		p := pkt
		if copies > 1 {
			// Duplicated copies each get unshared heap data: exactly one
			// receiver may Release a pooled buffer.
			p.Data = append([]byte(nil), pkt.Data...)
			p.buf = nil
		}
		if total <= inlineTransit && l.queued.Load() == 0 {
			dst.deliver(p, n)
			continue
		}
		l.enqueue(n, scheduledPkt{pkt: p, at: time.Now().Add(total), dst: dst})
	}
	if copies > 1 {
		pkt.Release() // the original backing was replaced by heap copies
	}
	return nil
}

// Endpoint is one bound network address.
type Endpoint struct {
	net   *Network
	addr  string
	inbox chan Packet
	// closeMu serializes deliveries against close: deliver holds the
	// read side while sending on inbox, Close holds the write side while
	// closing it.
	closeMu sync.RWMutex
	closed  atomic.Bool
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// Send transmits data to the given address. The payload is copied; the
// caller may reuse data immediately. The copy lives in a pooled buffer
// that release-aware receivers recycle via Packet.Release.
func (e *Endpoint) Send(to string, data []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	d, buf := pooledCopy(data)
	return e.net.send(Packet{From: e.addr, To: to, Data: d, buf: buf})
}

// Recv blocks until a packet arrives or the endpoint closes.
func (e *Endpoint) Recv() (Packet, error) {
	pkt, ok := <-e.inbox
	if !ok {
		return Packet{}, ErrClosed
	}
	return pkt, nil
}

// RecvCh exposes the receive ring as a channel: an event loop takes
// what is waiting with a non-blocking select and blocks on it when idle.
// The channel closes when the endpoint closes.
func (e *Endpoint) RecvCh() <-chan Packet { return e.inbox }

// deliver hands a packet to the endpoint unless it is closed or full
// (receiver overrun drops, like a NIC ring).
func (e *Endpoint) deliver(pkt Packet, n *Network) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		n.dropOverrun(pkt)
		return
	}
	select {
	case e.inbox <- pkt:
		n.delivered.Add(1)
		n.bytesDelivered.Add(uint64(len(pkt.Data)))
	default:
		// Receiver overrun: drop, as a NIC would.
		n.dropOverrun(pkt)
	}
}

// close shuts the endpoint down (called with the network lock held).
func (e *Endpoint) close() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed.Swap(true) {
		return
	}
	close(e.inbox)
}

// Close unbinds the endpoint from the network.
func (e *Endpoint) Close() {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if !e.closed.Load() {
		delete(e.net.endpoints, e.addr)
		e.close()
	}
}
