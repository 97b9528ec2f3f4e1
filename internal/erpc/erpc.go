// Package erpc is Treaty's asynchronous RPC library for transaction
// execution (§VII-A), modelled on eRPC. It provides:
//
//   - eRPC's execution model: requests are *enqueued* (not transmitted),
//     TxBurst flushes them, a polling event loop receives bursts and
//     dispatches; continuations complete pending requests. No blocking
//     receive exists on the data path — with the DPDK-style transport the
//     loop issues no syscalls at all, which is what makes it suitable for
//     enclaves.
//   - Treaty's secure message layer: every message is sealed in the
//     paper's format (12 B IV ∥ pad ∥ encrypted 80 B metadata ∥ data ∥
//     16 B MAC) under the cluster network key, and the (node id, tx id,
//     op id) triple in the metadata gives at-most-once execution: replayed
//     or duplicated packets are detected and not re-executed.
//   - Message buffers allocated from the mempool in *host* memory
//     (encrypted contents), keeping network buffers out of the EPC.
//
// Handlers are asynchronous: a handler receives a *Request and may call
// Reply immediately or hand the request to a fiber and reply later (how
// participants delay their prepare ACK until the log entry stabilizes).
package erpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/mempool"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// Errors returned by this package.
var (
	// ErrRemote carries an error string returned by a remote handler.
	ErrRemote = errors.New("erpc: remote error")
	// ErrNoHandler indicates an unregistered request type was received.
	ErrNoHandler = errors.New("erpc: no handler for request type")
	// ErrClosed indicates the endpoint has been closed.
	ErrClosed = errors.New("erpc: endpoint closed")
	// ErrAuth indicates a message failed authentication and was dropped.
	ErrAuth = errors.New("erpc: message authentication failed")
)

// wire header: version(1) reqType(1) flags(1) reserved(1) reqID(8).
const (
	wireVersion   = 1
	headerLen     = 12
	flagResponse  = 1 << 0
	flagError     = 1 << 1
	flagPlaintext = 1 << 2
)

// Request is an inbound RPC awaiting a reply. Handlers own the request
// and must eventually call Reply or ReplyError exactly once (from any
// goroutine). Payload and Meta are valid until the reply.
type Request struct {
	// Meta is the authenticated transaction metadata.
	Meta seal.MsgMetadata
	// Payload is the decrypted request body.
	Payload []byte
	// From is the sender's transport address.
	From string

	ep      *Endpoint
	reqType uint8
	reqID   uint64
	replied atomic.Bool
}

// Type returns the request type the sender used.
func (r *Request) Type() uint8 { return r.reqType }

// Reply sends a success response with the given payload.
func (r *Request) Reply(payload []byte) {
	r.reply(payload, 0)
}

// ReplyError sends an error response carrying msg.
func (r *Request) ReplyError(msg string) {
	r.reply([]byte(msg), flagError)
}

func (r *Request) reply(payload []byte, flags uint8) {
	if r.replied.Swap(true) {
		return // exactly-once reply; extra calls are dropped
	}
	md := r.Meta
	md.Flags |= uint32(flags)
	wire, _ := r.ep.encode(r.reqType, flagResponse|flags, r.reqID, &md, payload, false)
	// Cached so a retransmission re-replies instead of re-executing.
	r.ep.replay.storeReply(r.Meta, wire)
	r.ep.enqueueWire(r.From, wire)
}

// Handler processes one inbound request. Handlers may reply synchronously
// or asynchronously but must not block the event loop for long periods —
// park long work on a fiber instead.
type Handler func(*Request)

// Pending tracks one outstanding outbound request.
type Pending struct {
	done   atomic.Bool
	ch     chan struct{}
	resp   []byte
	err    error
	onDone func(*Pending)
	reqID  uint64
	start  time.Time
}

// Done reports whether the response (or failure) has arrived; Fan.Wait
// is the one wait for it.
func (p *Pending) Done() bool { return p.done.Load() }

// complete finishes the pending request and fires its continuation.
func (p *Pending) complete(resp []byte, err error) {
	p.resp, p.err = resp, err
	p.done.Store(true)
	close(p.ch)
	if p.onDone != nil {
		p.onDone(p)
	}
}

// Config configures an endpoint.
type Config struct {
	// NodeID identifies this node in message metadata.
	NodeID uint64
	// Transport carries the wire bytes.
	Transport Transport
	// NetworkKey is the cluster key provisioned by the CAS. Required
	// when Secure.
	NetworkKey seal.Key
	// Secure enables Treaty's sealed message format. When false,
	// messages travel in plaintext with the same framing (the
	// "w/o Enc" evaluation ablation).
	Secure bool
	// Pool supplies host-memory message buffers; nil allocates from the
	// Go heap directly.
	Pool *mempool.Pool
	// RxBurst bounds packets processed per event-loop iteration (0 = 16).
	RxBurst int
	// Metrics, when non-nil, exports the endpoint's counters and call
	// latency under MetricsPrefix. Export is via snapshot-time counter
	// funcs over the endpoint's own atomics, so the data path pays
	// nothing beyond the one latency observation per delivered response.
	Metrics *obs.Registry
	// MetricsPrefix namespaces this endpoint's metrics ("" = "erpc";
	// the counter-service endpoint uses "erpc.ctr" so two endpoints on
	// one node do not collide).
	MetricsPrefix string
}

// Endpoint is one node's RPC port: it sends requests, receives responses,
// and dispatches inbound requests to handlers. One event loop (RunOnce)
// must be driven by the owner; Enqueue*/Reply are safe from any goroutine.
type Endpoint struct {
	cfg      Config
	codec    *seal.MsgCodec
	handlers [256]Handler

	mu      sync.Mutex
	txq     []outMsg
	pending map[uint64]*Pending

	// txNotify wakes a blocked event loop when the transmit queue goes
	// non-empty (capacity 1: level-triggered).
	txNotify chan struct{}

	nextReqID atomic.Uint64
	nextOp    atomic.Uint64 // see NextOpID
	closed    atomic.Bool

	replay *replayCache

	// stats (all atomic: Stats() and the metrics funcs read them
	// concurrently with the data path)
	sent, received, replayDropped, authDropped, staleResponses atomic.Uint64
	cancelled, txDropped, handlerPanics                        atomic.Uint64
	requests, delivered, orphaned, retries, self               atomic.Uint64

	// callLatency records enqueue-to-response time for delivered
	// requests (nil when metrics are not configured; Observe is nil-safe).
	callLatency *obs.Histogram
}

// outMsg is one enqueued wire message. buf, when non-nil, is the pooled
// backing of wire; TxBurst returns it to the pool after the transport
// send (transports copy or transmit synchronously, so the frame is dead
// once Send returns).
type outMsg struct {
	to   string
	wire []byte
	buf  *mempool.Buf
}

// NewEndpoint creates an endpoint from cfg.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.Transport == nil {
		return nil, errors.New("erpc: config needs a transport")
	}
	if cfg.RxBurst <= 0 {
		cfg.RxBurst = 16
	}
	opSeed, err := seedOpID()
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{
		cfg:      cfg,
		pending:  make(map[uint64]*Pending),
		txNotify: make(chan struct{}, 1),
		replay:   newReplayCache(replayWindow),
	}
	ep.nextOp.Store(opSeed)
	if cfg.Secure {
		codec, err := seal.NewMsgCodec(cfg.NetworkKey)
		if err != nil {
			return nil, fmt.Errorf("erpc: %w", err)
		}
		ep.codec = codec
	}
	ep.registerMetrics()
	return ep, nil
}

// registerMetrics exports the endpoint's atomics into cfg.Metrics under
// cfg.MetricsPrefix, with the two laws they obey: the request law
//
//	enqueued == delivered + cancelled + orphaned + pending
//
// (every request leaves the pending map exactly once: response
// delivered, caller abandoned it, or endpoint close orphaned it), and
// the self law: a node reaches its own participant and coordinator by
// calls, so no request addresses the endpoint that sends it.
func (ep *Endpoint) registerMetrics() {
	m := ep.cfg.Metrics
	if m == nil {
		return
	}
	pfx := ep.cfg.MetricsPrefix
	if pfx == "" {
		pfx = "erpc"
	}
	ep.callLatency = m.Histogram(pfx + ".call.latency_ns")
	m.CounterFunc(pfx+".req.enqueued", ep.requests.Load)
	m.CounterFunc(pfx+".req.delivered", ep.delivered.Load)
	m.CounterFunc(pfx+".req.cancelled", ep.cancelled.Load)
	m.CounterFunc(pfx+".req.orphaned", ep.orphaned.Load)
	m.CounterFunc(pfx+".req.retries", ep.retries.Load)
	m.CounterFunc(pfx+".req.self", ep.self.Load)
	m.CounterFunc(pfx+".msg.sent", ep.sent.Load)
	m.CounterFunc(pfx+".msg.received", ep.received.Load)
	m.CounterFunc(pfx+".msg.tx_dropped", ep.txDropped.Load)
	m.CounterFunc(pfx+".msg.auth_dropped", ep.authDropped.Load)
	m.CounterFunc(pfx+".resp.stale", ep.staleResponses.Load)
	m.CounterFunc(pfx+".replay.hits", ep.replayDropped.Load)
	m.CounterFunc(pfx+".handler.panics", ep.handlerPanics.Load)
	m.GaugeFunc(pfx+".req.pending", func() int64 { return int64(ep.PendingCount()) })
	m.Balance(pfx+".req", pfx+".req.enqueued", pfx+".req.delivered", pfx+".req.cancelled", pfx+".req.orphaned", pfx+".req.pending")
	m.Balance(pfx+".req.self", pfx+".req.self")
}

// Register installs the handler for a request type. Registration must
// complete before the event loop starts.
func (ep *Endpoint) Register(reqType uint8, h Handler) {
	ep.handlers[reqType] = h
}

// LocalAddr returns the endpoint's transport address.
func (ep *Endpoint) LocalAddr() string { return ep.cfg.Transport.LocalAddr() }

// NodeID returns the endpoint's node id.
func (ep *Endpoint) NodeID() uint64 { return ep.cfg.NodeID }

// Enqueue constructs a request to the remote address and places it on the
// transmit queue — it does not transmit (§V-A step 2: "en-queuing the
// request does not transmit the message"); call TxBurst (or RunOnce) to
// flush. onDone, if non-nil, runs on the event loop when the response
// arrives. A request to this endpoint's own address is counted
// ("<prefix>.req.self"): a node reaches its own handlers by a call, so the
// self law holds that count at zero.
func (ep *Endpoint) Enqueue(to string, reqType uint8, md seal.MsgMetadata, payload []byte, onDone func(*Pending)) *Pending {
	if to == ep.LocalAddr() {
		ep.self.Add(1)
	}
	reqID := ep.nextReqID.Add(1)
	p := &Pending{onDone: onDone, reqID: reqID, ch: make(chan struct{}), start: time.Now()}
	md.NodeID = ep.cfg.NodeID
	md.Seq = reqID
	wire, buf := ep.encode(reqType, 0, reqID, &md, payload, true)
	ep.requests.Add(1)
	ep.mu.Lock()
	if ep.closed.Load() {
		// A closed endpoint can never deliver a response; fail the call
		// immediately instead of parking it until the caller's timeout.
		// Checked under ep.mu so the insert cannot race Close's drain of
		// the pending map (Close sets closed before taking ep.mu, so once
		// it has drained, any later Enqueue observes closed here).
		ep.mu.Unlock()
		ep.orphaned.Add(1)
		if buf != nil {
			ep.cfg.Pool.Free(buf)
		}
		p.complete(nil, ErrClosed)
		return p
	}
	ep.pending[reqID] = p
	ep.txq = append(ep.txq, outMsg{to: to, wire: wire, buf: buf})
	ep.mu.Unlock()
	ep.wakeTx()
	return p
}

// PendingCount reports the number of outstanding requests (used by the
// chaos harness to assert the pending map does not leak).
func (ep *Endpoint) PendingCount() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.pending)
}

// wakeTx signals the event loop that the transmit queue has work.
func (ep *Endpoint) wakeTx() {
	select {
	case ep.txNotify <- struct{}{}:
	default:
	}
}

// HandlePacket dispatches one wire message and flushes the replies it
// enqueued. The event loop reaches it through receive; the 2PC fuzz
// harness injects frames here directly.
func (ep *Endpoint) HandlePacket(from string, data []byte) {
	ep.dispatch(from, data)
	_ = ep.TxBurst()
}

// receive is the one way a packet reaches its handler: the event loop's
// goroutine pays the packet's receive cost and runs the dispatch. A
// secure endpoint never retains the wire buffer — the data path decrypts
// into fresh memory and every drop branch (decode failure, replay, auth)
// returns without keeping a reference — so it recycles unconditionally.
// A plaintext endpoint hands payload views of the buffer to handlers and
// completions: ownership transfers to dispatch and the buffer falls to
// the GC.
func (ep *Endpoint) receive(pkt simnet.Packet) {
	ep.cfg.Transport.Charge(len(pkt.Data))
	ep.HandlePacket(pkt.From, pkt.Data)
	if ep.codec != nil {
		pkt.Release()
	}
}

// enqueueWire places a prebuilt message on the transmit queue.
func (ep *Endpoint) enqueueWire(to string, wire []byte) {
	ep.mu.Lock()
	ep.txq = append(ep.txq, outMsg{to: to, wire: wire})
	ep.mu.Unlock()
	ep.wakeTx()
}

// TxBurst flushes the transmit queue to the transport. A send failure
// drops only that message: the rest of the already-dequeued batch is
// still transmitted (one unreachable peer must not discard traffic to
// every other destination), failures are aggregated into the returned
// error, and each drop is counted in Stats.TxDropped.
func (ep *Endpoint) TxBurst() error {
	ep.mu.Lock()
	batch := ep.txq
	ep.txq = nil
	ep.mu.Unlock()
	var errs []error
	for _, m := range batch {
		err := ep.cfg.Transport.Send(m.to, m.wire)
		if m.buf != nil {
			// Sealed-frame reuse: Send copied the frame, so the pooled
			// backing recycles immediately — sent or dropped alike.
			ep.cfg.Pool.Free(m.buf)
		}
		if err != nil {
			ep.txDropped.Add(1)
			errs = append(errs, err)
			continue
		}
		ep.sent.Add(1)
	}
	if len(errs) > 0 {
		return fmt.Errorf("erpc: tx burst: %w", errors.Join(errs...))
	}
	return nil
}

// RunOnce performs one event-loop iteration: transmit pending messages,
// then take up to RxBurst packets that are already waiting, without
// blocking. It returns the number of packets processed. Transport send
// failures surface per-pending via timeouts at the protocol layer; the
// loop keeps running.
func (ep *Endpoint) RunOnce() int {
	if ep.closed.Load() {
		return 0
	}
	_ = ep.TxBurst()
	rx := ep.cfg.Transport.Recv()
	n := 0
	for ; n < ep.cfg.RxBurst; n++ {
		select {
		case pkt, ok := <-rx:
			if !ok {
				return n
			}
			ep.receive(pkt)
		default:
			return n
		}
	}
	return n
}

// Close shuts the endpoint down. Outstanding requests complete with
// ErrClosed so blocked callers unwind immediately instead of waiting out
// their timeouts (and nothing leaks in the pending map).
func (ep *Endpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	ep.mu.Lock()
	orphans := ep.pending
	ep.pending = make(map[uint64]*Pending)
	unsent := ep.txq
	ep.txq = nil
	ep.mu.Unlock()
	for _, m := range unsent {
		// Never leak pooled frames parked on the transmit queue.
		if m.buf != nil {
			ep.cfg.Pool.Free(m.buf)
		}
	}
	ep.orphaned.Add(uint64(len(orphans)))
	for _, p := range orphans {
		p.complete(nil, ErrClosed)
	}
	return ep.cfg.Transport.Close()
}

// encode builds a message's wire representation, sealing (or framing)
// directly into the frame's allocation — no intermediate ciphertext
// copy. Only *request* frames are pooled: with a mempool configured they
// are built in a host-region buffer, returned alongside the wire bytes,
// that is dead once the transport send returns. Reply frames outlive the
// send — the replay cache retains them for idempotent re-replies — so
// they stay heap-owned.
func (ep *Endpoint) encode(reqType, flags uint8, reqID uint64, md *seal.MsgMetadata, payload []byte, pooled bool) ([]byte, *mempool.Buf) {
	n := headerLen + seal.MetadataSize + len(payload) // plaintext framing
	if ep.codec != nil {
		n = headerLen + seal.MsgWireLen(len(payload))
	}
	var buf *mempool.Buf
	var wire []byte
	if pooled && ep.cfg.Pool != nil {
		buf = ep.cfg.Pool.Alloc(n)
		wire = buf.Full()[:headerLen]
	} else {
		wire = make([]byte, headerLen, n)
	}
	if ep.codec != nil {
		wire = ep.codec.SealMessageInto(wire, md, payload)
	} else {
		flags |= flagPlaintext
		md.DataLen = uint32(len(payload))
		wire = wire[:n]
		md.EncodePlain(wire[headerLen:])
		copy(wire[headerLen+seal.MetadataSize:], payload)
	}
	wire[0] = wireVersion
	wire[1] = reqType
	wire[2] = flags
	wire[3] = 0
	binary.LittleEndian.PutUint64(wire[4:], reqID)
	return wire, buf
}

// decode parses and (if secure) authenticates a wire message.
func (ep *Endpoint) decode(wire []byte) (reqType, flags uint8, reqID uint64, md seal.MsgMetadata, payload []byte, err error) {
	if len(wire) < headerLen || wire[0] != wireVersion {
		err = seal.ErrMalformedMessage
		return
	}
	reqType, flags = wire[1], wire[2]
	reqID = binary.LittleEndian.Uint64(wire[4:])
	body := wire[headerLen:]
	if ep.codec != nil {
		if flags&flagPlaintext != 0 {
			// A plaintext message on a secure endpoint is an attack
			// (downgrade); reject.
			err = ErrAuth
			return
		}
		md, payload, err = ep.codec.OpenMessage(body)
		if err != nil {
			err = ErrAuth
			return
		}
		// Bind the cleartext reqID to the authenticated metadata: a
		// swapped header cannot redirect a response to another request.
		if md.Seq != reqID {
			err = ErrAuth
			return
		}
		return
	}
	if len(body) < seal.MetadataSize {
		err = seal.ErrMalformedMessage
		return
	}
	if derr := md.DecodePlain(body); derr != nil {
		err = derr
		return
	}
	payload = body[seal.MetadataSize:]
	return
}

// dispatch routes one received packet.
func (ep *Endpoint) dispatch(from string, wire []byte) {
	reqType, flags, reqID, md, payload, err := ep.decode(wire)
	if err != nil {
		// Tampered, malformed, or downgraded message: detected and
		// dropped (the attacker gains nothing but a lost packet).
		ep.authDropped.Add(1)
		return
	}
	ep.received.Add(1)

	if flags&flagResponse != 0 {
		ep.mu.Lock()
		p, ok := ep.pending[reqID]
		if ok {
			delete(ep.pending, reqID)
		}
		ep.mu.Unlock()
		if !ok {
			ep.staleResponses.Add(1)
			return // duplicate or stale response
		}
		ep.delivered.Add(1)
		ep.callLatency.ObserveSince(p.start)
		if flags&flagError != 0 {
			p.complete(nil, fmt.Errorf("%w: %s", ErrRemote, string(payload)))
		} else {
			// The completion owns the payload: on the secure path
			// OpenMessage decrypted into fresh memory, and on the
			// plaintext path the event loop hands the whole receive
			// buffer over instead of recycling it (see receive).
			p.complete(payload, nil)
		}
		return
	}

	// Inbound request: enforce at-most-once execution on the
	// (node, tx, op) triple.
	if cached, dup := ep.replay.check(md); dup {
		ep.replayDropped.Add(1)
		if cached != nil {
			// Idempotent re-reply for a retransmitted request whose
			// response was already computed.
			ep.enqueueWire(from, cached)
		}
		return
	}

	h := ep.handlers[reqType]
	if h == nil {
		md2 := md
		md2.Flags |= flagError
		wireResp, _ := ep.encode(reqType, flagResponse|flagError, reqID, &md2, []byte(ErrNoHandler.Error()), false)
		ep.enqueueWire(from, wireResp)
		return
	}
	// Same ownership rule as the response path: the handler owns the
	// payload (fresh decryption, or the handed-over receive buffer).
	req := &Request{
		Meta:    md,
		Payload: payload,
		From:    from,
		ep:      ep,
		reqType: reqType,
		reqID:   reqID,
	}
	ep.invoke(h, req)
}

// invoke runs a handler with panic containment: a panicking handler must
// not kill the node's only poller goroutine. The panic is converted into
// an error reply (exactly-once reply semantics drop it if the handler
// already replied before panicking) and counted in Stats.HandlerPanics.
func (ep *Endpoint) invoke(h Handler, req *Request) {
	defer func() {
		if r := recover(); r != nil {
			ep.handlerPanics.Add(1)
			req.ReplyError(fmt.Sprintf("erpc: handler panic: %v", r))
		}
	}()
	h(req)
}

// Stats reports endpoint counters.
type Stats struct {
	// Sent counts transmitted messages.
	Sent uint64
	// Received counts authenticated received messages.
	Received uint64
	// ReplayDropped counts duplicate requests rejected by dedup.
	ReplayDropped uint64
	// AuthDropped counts messages dropped for failing authentication.
	AuthDropped uint64
	// StaleResponses counts responses with no matching pending request.
	StaleResponses uint64
	// Cancelled counts pending requests abandoned by their callers
	// (timeouts); their late responses show up as StaleResponses.
	Cancelled uint64
	// TxDropped counts enqueued messages the transport failed to send.
	TxDropped uint64
	// HandlerPanics counts handler panics contained by the dispatcher.
	HandlerPanics uint64
	// Requests counts outbound requests enqueued. Each obeys
	// Requests == Delivered + Cancelled + Orphaned + PendingCount().
	Requests uint64
	// Delivered counts responses matched to a pending request (remote
	// errors included: the response arrived).
	Delivered uint64
	// Orphaned counts pending requests failed with ErrClosed (enqueued
	// against, or drained by, a closed endpoint).
	Orphaned uint64
	// Retries counts re-sent requests: every rung any Retry ladder on this
	// endpoint climbed.
	Retries uint64
}

// Stats returns a snapshot of the endpoint counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		Sent:           ep.sent.Load(),
		Received:       ep.received.Load(),
		ReplayDropped:  ep.replayDropped.Load(),
		AuthDropped:    ep.authDropped.Load(),
		StaleResponses: ep.staleResponses.Load(),
		Cancelled:      ep.cancelled.Load(),
		TxDropped:      ep.txDropped.Load(),
		HandlerPanics:  ep.handlerPanics.Load(),
		Requests:       ep.requests.Load(),
		Delivered:      ep.delivered.Load(),
		Orphaned:       ep.orphaned.Load(),
		Retries:        ep.retries.Load(),
	}
}
