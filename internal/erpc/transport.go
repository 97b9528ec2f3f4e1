package erpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/fibers"
	"treaty/internal/mempool"
	"treaty/internal/simnet"
)

// Transport carries wire bytes between endpoints. Poll must be
// non-blocking (kernel-bypass style); reliability is not required —
// the protocol layers tolerate loss via retries or abort.
type Transport interface {
	// Send transmits data to the named address.
	Send(to string, data []byte) error
	// Poll returns one received packet if immediately available.
	Poll() (from string, data []byte, ok bool)
	// LocalAddr returns this transport's address.
	LocalAddr() string
	// Close releases the transport.
	Close() error
}

// RawPacket is one received datagram, for event-channel transports.
type RawPacket struct {
	// From is the sender address.
	From string
	// Data is the payload.
	Data []byte
	// release returns Data to its transport's buffer pool; nil when the
	// buffer came from the GC heap (or is owned by the sender, as on the
	// in-process sim fabric).
	release func()
	// simBuf is the sim fabric's pooled backing of Data. The fabric hands
	// out the raw pointer rather than a release closure because binding
	// one per packet is itself an allocation on the poller's critical
	// path. At most one of simBuf/release is set.
	simBuf *[]byte
}

// Release recycles the packet's receive buffer. Call it exactly once,
// after Data is no longer referenced — including on every frame-decode
// failure path, or the buffer leaks from its pool. Nil-safe: packets
// without pooled buffers ignore it.
func (p RawPacket) Release() {
	if p.simBuf != nil {
		simnet.RecycleBuf(p.simBuf)
		return
	}
	if p.release != nil {
		p.release()
	}
}

// ChannelTransport is implemented by transports that can deliver receive
// events over a channel, letting the event loop block when idle instead
// of sleep-polling — the adaptive polling DESIGN.md describes. The
// channel closes when the transport closes.
type ChannelTransport interface {
	Transport
	// RecvCh returns the receive event channel. A packet read from the
	// channel must be handed to the endpoint (it bypasses Poll), then
	// Released.
	RecvCh() <-chan RawPacket
}

// PacketTransport is implemented by transports whose poll path hands
// out packets with their release hook attached, so the event loop can
// recycle the receive buffer once the frame has been dispatched (the
// plain Poll interface cannot: its caller keeps the slice).
type PacketTransport interface {
	Transport
	// PollPacket returns one received packet if immediately available.
	// The caller must Release it after dispatch.
	PollPacket() (RawPacket, bool)
}

// TransportKind selects the I/O cost profile of a transport.
type TransportKind int

const (
	// KindDPDK models kernel-bypass userspace I/O: polling, zero
	// syscalls on the data path (eRPC over DPDK, §VII-A).
	KindDPDK TransportKind = iota + 1
	// KindSocket models kernel sockets: every send and receive is a
	// (SCONE async) syscall, the overhead the paper's Fig. 8 isolates.
	KindSocket
)

// SimTransport runs over a simnet endpoint, charging syscall costs
// according to its kind.
type SimTransport struct {
	ep   *simnet.Endpoint
	rt   *enclave.Runtime
	kind TransportKind

	recvOnce sync.Once
	recvCh   chan RawPacket
}

// NewSimTransport wraps a simnet endpoint. rt may be nil (native).
func NewSimTransport(ep *simnet.Endpoint, rt *enclave.Runtime, kind TransportKind) *SimTransport {
	return &SimTransport{ep: ep, rt: rt, kind: kind}
}

var (
	_ ChannelTransport = (*SimTransport)(nil)
	_ PacketTransport  = (*SimTransport)(nil)
)

// RecvCh implements ChannelTransport: a converter goroutine forwards the
// simnet inbox, charging receive costs as packets pass. Each forwarded
// packet carries the fabric's release hook so the event loop recycles
// the send-side payload copy after dispatch.
func (t *SimTransport) RecvCh() <-chan RawPacket {
	t.recvOnce.Do(func() {
		t.recvCh = make(chan RawPacket)
		go func() {
			defer close(t.recvCh)
			for pkt := range t.ep.RecvCh() {
				t.charge(len(pkt.Data))
				t.recvCh <- RawPacket{From: pkt.From, Data: pkt.Data, simBuf: pkt.Buf()}
			}
		}()
	})
	return t.recvCh
}

// Send implements Transport.
func (t *SimTransport) Send(to string, data []byte) error {
	t.charge(len(data))
	return t.ep.Send(to, data)
}

// PollPacket implements PacketTransport: the caller must Release the
// packet after dispatching it, returning the fabric's send-side payload
// copy to its pool.
func (t *SimTransport) PollPacket() (RawPacket, bool) {
	pkt, ok := t.ep.Poll()
	if !ok {
		return RawPacket{}, false
	}
	t.charge(len(pkt.Data))
	return RawPacket{From: pkt.From, Data: pkt.Data, simBuf: pkt.Buf()}, true
}

// Poll implements Transport. DPDK polling issues no syscalls; a socket
// recv costs one syscall only when data is actually drained (we model
// level-triggered epoll batching for the socket path). Plain-Poll
// callers keep the slice, so the pooled backing is not recycled —
// release-aware callers use PollPacket instead.
func (t *SimTransport) Poll() (string, []byte, bool) {
	pkt, ok := t.ep.Poll()
	if !ok {
		return "", nil, false
	}
	t.charge(len(pkt.Data))
	return pkt.From, pkt.Data, true
}

// charge applies the per-operation I/O cost: socket transports pay a
// syscall; in enclave mode both kinds pay the message-boundary cost
// (buffers live in host memory and are copied across, §VII-D).
func (t *SimTransport) charge(n int) {
	if t.rt == nil {
		return
	}
	if t.kind == KindSocket {
		t.rt.Syscall()
	}
	t.rt.MessageCost(n)
}

// LocalAddr implements Transport.
func (t *SimTransport) LocalAddr() string { return t.ep.Addr() }

// Close implements Transport.
func (t *SimTransport) Close() error {
	t.ep.Close()
	return nil
}

// UDPTransport runs over a real UDP socket (loopback or LAN). A reader
// goroutine drains the socket into a bounded channel so Poll stays
// non-blocking. Every datagram costs a syscall (charged to rt).
type UDPTransport struct {
	conn   *net.UDPConn
	rt     *enclave.Runtime
	pool   *mempool.Pool
	inbox  chan RawPacket
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewUDPTransport binds a UDP socket on addr ("127.0.0.1:0" for an
// ephemeral port). rt may be nil.
func NewUDPTransport(addr string, rt *enclave.Runtime) (*UDPTransport, error) {
	return NewUDPTransportPool(addr, rt, nil)
}

// NewUDPTransportPool is NewUDPTransport with receive buffers drawn
// from pool instead of the GC heap (one allocation per inbound frame
// otherwise). Buffers live in the host region — inbound wire bytes are
// ciphertext (or untrusted plaintext) and need no EPC residency. Each
// buffer is returned to the pool by RawPacket.Release once the frame
// has been dispatched or dropped. pool may be nil.
func NewUDPTransportPool(addr string, rt *enclave.Runtime, pool *mempool.Pool) (*UDPTransport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("erpc: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("erpc: binding udp: %w", err)
	}
	t := &UDPTransport{
		conn:  conn,
		rt:    rt,
		pool:  pool,
		inbox: make(chan RawPacket, 4096),
	}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

var (
	_ ChannelTransport = (*UDPTransport)(nil)
	_ PacketTransport  = (*UDPTransport)(nil)
)

// RecvCh implements ChannelTransport. Receive-side syscall costs are
// charged by the read loop; channel consumers get packets directly.
func (t *UDPTransport) RecvCh() <-chan RawPacket { return t.inbox }

// readLoop drains the socket into the inbox.
func (t *UDPTransport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, raddr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if t.closed.Load() {
				return
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return
		}
		pkt := RawPacket{From: raddr.String()}
		if t.pool != nil {
			b := t.pool.Alloc(n, mempool.RegionHost)
			copy(b.Data, buf[:n])
			pkt.Data = b.Data
			pkt.release = func() { t.pool.Free(b) }
		} else {
			pkt.Data = make([]byte, n)
			copy(pkt.Data, buf[:n])
		}
		select {
		case t.inbox <- pkt:
		default:
			// Inbox overrun: drop, like a NIC ring overflow. The buffer
			// still goes back to the pool — dropping a frame must not
			// leak its memory.
			pkt.Release()
		}
	}
}

// Send implements Transport.
func (t *UDPTransport) Send(to string, data []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if t.rt != nil {
		t.rt.Syscall()
	}
	raddr, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return fmt.Errorf("erpc: resolving %q: %w", to, err)
	}
	if _, err := t.conn.WriteToUDP(data, raddr); err != nil {
		return fmt.Errorf("erpc: udp send: %w", err)
	}
	return nil
}

// PollPacket implements PacketTransport: the caller must Release the
// packet after dispatching it.
func (t *UDPTransport) PollPacket() (RawPacket, bool) {
	select {
	case pkt := <-t.inbox:
		if t.rt != nil {
			t.rt.Syscall()
		}
		return pkt, true
	default:
		return RawPacket{}, false
	}
}

// Poll implements Transport. Callers of the plain interface keep the
// returned slice indefinitely, so a pooled buffer is detached with a
// copy here; release-aware callers use PollPacket instead.
func (t *UDPTransport) Poll() (string, []byte, bool) {
	pkt, ok := t.PollPacket()
	if !ok {
		return "", nil, false
	}
	if pkt.release != nil {
		data := append([]byte(nil), pkt.Data...)
		pkt.Release()
		return pkt.From, data, true
	}
	return pkt.From, pkt.Data, true
}

// LocalAddr implements Transport.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	err := t.conn.Close()
	var drained atomic.Bool
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(t.inbox)
		// Recycle any packets still queued: each is delivered to exactly
		// one receiver (channel semantics), so this drain cannot race a
		// consumer into a double release.
		for pkt := range t.inbox {
			pkt.Release()
		}
		drained.Store(true)
		close(done)
	}()
	fibers.Wait(drained.Load, done, time.Now().Add(time.Second), nil)
	return err
}
