// Package counter implements Treaty's asynchronous distributed trusted
// counter service (§VI), modelled on ROTE: a protection group of counter
// enclaves that make monotonic counter values rollback-protected via an
// echo-broadcast protocol with a confirmation round.
//
// Protocol (per counter update): the sender enclave (SE) broadcasts the
// counter value to all replica enclaves (REs). Each RE stores the value
// in protected memory and returns an echo. Once the SE holds echoes from
// a quorum q it starts the confirmation round; each RE verifies the value
// matches what it stored, replies ACK, and seals its state to persistent
// storage. After q ACKs the value is stable: a majority of enclaves will
// report at least this value after any crash, so a rolled-back log can
// always be detected at recovery.
//
// The client interface is asynchronous (Stabilize enqueues, WaitStable
// blocks), letting Treaty overlap counter latency with other work —
// commits only wait at the stabilization points the protocol requires.
// SGX's own monotonic counters are not used: they take up to ~250 ms per
// increment, wear out, and are per-CPU (§IV-B); this service is the
// paper's answer.
package counter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
)

// Request types used by the counter protocol.
const (
	reqUpdate  uint8 = 0xC1 // round 1: echo broadcast
	reqConfirm uint8 = 0xC2 // round 2: confirmation
	reqQuery   uint8 = 0xC3 // recovery: read stable value
)

// ErrNoQuorum indicates the protection group could not reach quorum.
var ErrNoQuorum = errors.New("counter: no quorum")

// ErrClosed fails a stabilization wait whose client was closed before the
// value became stable: no pump is left to run the round.
var ErrClosed = errors.New("counter: client closed")

// wire helpers: name-length-prefixed name ∥ value.
func encodeReq(name string, value uint64) []byte {
	out := make([]byte, 0, 2+len(name)+8)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint64(out, value)
	return out
}

func decodeReq(data []byte) (string, uint64, error) {
	if len(data) < 2 {
		return "", 0, errors.New("counter: short request")
	}
	n := int(binary.LittleEndian.Uint16(data))
	if len(data) < 2+n+8 {
		return "", 0, errors.New("counter: short request")
	}
	name := string(data[2 : 2+n])
	v := binary.LittleEndian.Uint64(data[2+n:])
	return name, v, nil
}

// Client is the sender-enclave side: it drives the two-round protocol
// against a protection group and exposes per-log-file counter handles.
type Client struct {
	ep       *erpc.Endpoint
	replicas []string
	quorum   int
	timeout  time.Duration

	mu      sync.Mutex
	handles map[string]*Handle
	failErr error // sticky client-wide poison (Fail); new handles inherit it

	// nextTx numbers protocol rounds. Atomic, not mutex-guarded: broadcast
	// takes ids on the stabilization hot path, concurrently from every
	// handle pump.
	nextTx atomic.Uint64

	// metrics (nil-safe when no registry is configured)
	rounds        *obs.Counter
	roundFailures *obs.Counter
	roundLatency  *obs.Histogram
	batchSize     *obs.Histogram
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Endpoint is the RPC port used to reach the replicas. Its event
	// loop must be driven (e.g. erpc.StartPoller).
	Endpoint *erpc.Endpoint
	// Replicas are the protection group's addresses; a majority of them
	// is the quorum.
	Replicas []string
	// Timeout bounds each protocol round (default 2s).
	Timeout time.Duration
	// Metrics, when non-nil, records stabilization round counts,
	// failures, latency, and batch sizes under "counter.*".
	Metrics *obs.Registry
}

// NewClient creates a counter client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Endpoint == nil || len(cfg.Replicas) == 0 {
		return nil, errors.New("counter: client needs endpoint and replicas")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &Client{
		ep:       cfg.Endpoint,
		replicas: cfg.Replicas,
		quorum:   len(cfg.Replicas)/2 + 1,
		timeout:  cfg.Timeout,
		handles:  make(map[string]*Handle),
		// All nil when Metrics is nil: recording becomes a no-op.
		rounds:        cfg.Metrics.Counter("counter.rounds"),
		roundFailures: cfg.Metrics.Counter("counter.round.failures"),
		roundLatency:  cfg.Metrics.Histogram("counter.round.latency_ns"),
		batchSize:     cfg.Metrics.Histogram("counter.batch.size"),
	}, nil
}

// Counter returns the handle for the named counter (one per log file),
// creating it on first use. initialStable seeds the local view; use
// RecoverStable after restarts instead.
func (c *Client) Counter(name string) *Handle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.handles[name]; ok {
		return h
	}
	h := &Handle{client: c, name: name, changed: make(chan struct{})}
	if c.failErr != nil {
		h.closed = true
		h.failed.Store(c.failErr)
	}
	c.handles[name] = h
	go h.pump()
	return h
}

// RecoverStable queries the protection group for the named counter's
// quorum-stable value (used at node recovery before replaying logs).
func (c *Client) RecoverStable(name string) (uint64, error) {
	values, err := c.broadcast(reqQuery, name, 0)
	if err != nil {
		return 0, err
	}
	// The stable value is the maximum reported by the quorum: any value
	// that completed round 2 was sealed by at least q replicas, so at
	// least one quorum member reports it.
	var maxV uint64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	return maxV, nil
}

// broadcast sends one round to all replicas and waits for a quorum of
// replies (erpc.Send, then Fan.Wait with need = quorum), returning their reported
// values. The replicas the quorum made unnecessary are abandoned, not
// left registered: a dead replica never answers.
func (c *Client) broadcast(reqType uint8, name string, value uint64) ([]uint64, error) {
	md := seal.MsgMetadata{TxID: c.nextTx.Add(1), OpType: uint32(reqType)}
	var values []uint64
	for _, r := range erpc.Send(c.ep, c.replicas, reqType, md, encodeReq(name, value)).Wait(c.quorum, c.timeout, nil) {
		if r.Err == nil && len(r.Resp) >= 8 {
			values = append(values, binary.LittleEndian.Uint64(r.Resp))
		}
	}
	if len(values) < c.quorum {
		return nil, fmt.Errorf("%w: %d/%d replies for %s", ErrNoQuorum, len(values), c.quorum, name)
	}
	return values, nil
}

// Handle is one named counter's client-side state. It satisfies the
// storage engine's TrustedCounter interface.
type Handle struct {
	client *Client
	name   string

	// stable and failed are read lock-free: an already stable token costs
	// its waiter two atomic loads. Writes stay under h.mu, wake following.
	stable atomic.Uint64 // highest value confirmed by quorum
	failed atomic.Value  // sticky error (no quorum after MaxRetries)

	mu sync.Mutex
	// changed is closed and replaced (wake) whenever state moves: the pump
	// and every waiter block on it, as lock waiters do on keyLock.wait.
	changed chan struct{}
	pending uint64 // highest value requested
	closed  bool
}

// wake releases everything blocked on the handle (h.mu held).
func (h *Handle) wake() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// Changed implements durlog.TrustedCounter.
func (h *Handle) Changed() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.changed
}

// failedErr returns the sticky failure without locking.
func (h *Handle) failedErr() error {
	if e := h.failed.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// MaxRoundRetries bounds consecutive failed protocol rounds before a
// handle gives up (each round already has the client timeout). Transient
// partitions and tampering within this budget only delay stabilization —
// "any faults ... can only affect availability" (§VI).
const MaxRoundRetries = 8

// Stabilize asynchronously requests rollback protection up to v.
// Requests batch: stabilizing v implicitly covers all v' < v, so a burst
// of commits costs one protocol round (the paper's asynchronous trusted
// counter interface).
func (h *Handle) Stabilize(v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v > h.pending {
		h.pending = v
		h.wake()
	}
}

// WaitStable blocks until the counter service has made v
// rollback-protected (or the service failed to reach quorum). The whole
// cohort of waiters covered by a round wakes on its single wake —
// stabilizing the round's target implicitly stabilizes every lower value.
func (h *Handle) WaitStable(v uint64) error {
	h.Stabilize(v)
	for {
		h.mu.Lock()
		changed, closed := h.changed, h.closed
		h.mu.Unlock()
		if err := h.failedErr(); err != nil || h.stable.Load() >= v {
			return err
		}
		if closed {
			return ErrClosed
		}
		<-changed
	}
}

// StableValue returns the highest quorum-stable value observed locally
// (lock-free; safe to poll from every fiber).
func (h *Handle) StableValue() uint64 { return h.stable.Load() }

// raiseStable lifts the stable view to v (CAS-max).
func (h *Handle) raiseStable(v uint64) {
	for {
		cur := h.stable.Load()
		if v <= cur || h.stable.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SeedStable sets the local stable view (from RecoverStable) without
// running the protocol. Call before first use after a restart.
func (h *Handle) SeedStable(v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.raiseStable(v)
	if v > h.pending {
		h.pending = v
	}
}

// pump runs the two-round protocol whenever there is pending work,
// batching all requests that arrived meanwhile into one round. Failed
// rounds (partition, tampering, replica crashes) are retried on the
// retry ladder, up to MaxRoundRetries consecutive failures, before the
// handle fails permanently.
func (h *Handle) pump() {
	c := h.client
	fresh := c.ep.Retry(MaxRoundRetries, erpc.RetryBase, erpc.RetryCap, nil)
	retry := fresh
	for {
		h.mu.Lock()
		target, changed, closed := h.pending, h.changed, h.closed
		h.mu.Unlock()
		if closed {
			return
		}
		if target <= h.stable.Load() {
			<-changed
			continue
		}
		batched := target - h.stable.Load() // increments covered by this round

		c.rounds.Inc()
		c.batchSize.Observe(int64(batched))
		roundStart := time.Now()
		err := h.runRounds(target)
		c.roundLatency.ObserveSince(roundStart)
		if err == nil {
			retry = fresh // failures only count while consecutive
			h.mu.Lock()
			h.raiseStable(target)
			// One wakeup for the whole cohort the round covered.
			h.wake()
			h.mu.Unlock()
			continue
		}
		c.roundFailures.Inc()
		if !retry.Next() {
			h.Fail(err)
			return
		}
	}
}

// Failed returns the handle's permanent failure, if any (lock-free). The
// storage layer's stable tokens consult this on every readiness check so
// waiters surface the error instead of waiting forever.
func (h *Handle) Failed() error { return h.failedErr() }

// runRounds executes echo broadcast + confirmation for value v.
func (h *Handle) runRounds(v uint64) error {
	// Round 1: echo broadcast. REs store the value and echo it back.
	echoes, err := h.client.broadcast(reqUpdate, h.name, v)
	if err != nil {
		return fmt.Errorf("counter: echo round for %s: %w", h.name, err)
	}
	for _, e := range echoes {
		if e < v {
			return fmt.Errorf("counter: replica echoed stale value %d < %d", e, v)
		}
	}
	// Round 2: confirmation. REs verify the stored value and seal.
	if _, err := h.client.broadcast(reqConfirm, h.name, v); err != nil {
		return fmt.Errorf("counter: confirm round for %s: %w", h.name, err)
	}
	return nil
}

// close stops the pump (used by tests).
func (h *Handle) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.wake()
}

// Fail poisons the handle: every present and future stabilization wait
// returns err, and the pump starts no further protocol rounds. An
// in-flight round may still raise the stable view, but waiters check the
// failure before trusting it, so nothing waits out to success. See
// Client.Fail for the crash-teardown rationale.
func (h *Handle) Fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	if h.failedErr() == nil {
		h.failed.Store(err)
	}
	h.wake()
}

// Close stops all handle pumps.
func (c *Client) Close() {
	c.mu.Lock()
	handles := make([]*Handle, 0, len(c.handles))
	for _, h := range c.handles {
		handles = append(handles, h)
	}
	c.mu.Unlock()
	for _, h := range handles {
		h.close()
	}
}

// Fail poisons the client: every present and future stabilization wait —
// on every handle, including handles created after this call — fails
// with err. Crash teardown uses it to cut the acknowledgement path in
// one step: a prepare vote or commit return is externalized only after a
// successful stable-token wait, so once Fail returns, nothing the dying
// node does can be acknowledged to anyone.
func (c *Client) Fail(err error) {
	c.mu.Lock()
	if c.failErr == nil {
		c.failErr = err
	}
	handles := make([]*Handle, 0, len(c.handles))
	for _, h := range c.handles {
		handles = append(handles, h)
	}
	c.mu.Unlock()
	for _, h := range handles {
		h.Fail(err)
	}
}
