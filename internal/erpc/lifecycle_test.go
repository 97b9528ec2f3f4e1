package erpc

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// TestTimedOutCallsDoNotLeakPending drives calls into a network dropping
// every packet: each call must time out, deregister its pending entry,
// and count as cancelled — the pending map returns to zero instead of
// growing forever.
func TestTimedOutCallsDoNotLeakPending(t *testing.T) {
	testBothModes(t, func(t *testing.T, secure bool) {
		tc := newTestCluster(t, secure)
		tc.net.SetAdversary(simnet.FuncAdversary(func(simnet.Packet) simnet.Verdict {
			return simnet.Verdict{Drop: true}
		}))
		const calls = 8
		for i := 0; i < calls; i++ {
			md := seal.MsgMetadata{TxID: uint64(100 + i), OpID: 1}
			_, err := Call(tc.client, "server", reqEcho, md, []byte("x"), 20*time.Millisecond, nil)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("call %d: got %v, want ErrTimeout", i, err)
			}
		}
		if n := tc.client.PendingCount(); n != 0 {
			t.Errorf("pending map leaked %d entries after timeouts", n)
		}
		if got := tc.client.Stats().Cancelled; got != calls {
			t.Errorf("Cancelled = %d, want %d", got, calls)
		}
	})
}

// TestLateResponseCountedStale delays responses past the caller's
// timeout: the abandoned request's late response must be counted stale,
// not delivered, and nothing may leak.
func TestLateResponseCountedStale(t *testing.T) {
	tc := newTestCluster(t, true)
	tc.net.SetAdversary(simnet.FuncAdversary(func(pkt simnet.Packet) simnet.Verdict {
		if pkt.From == "server" {
			return simnet.Verdict{Delay: 80 * time.Millisecond}
		}
		return simnet.Verdict{}
	}))
	md := seal.MsgMetadata{TxID: 1, OpID: 1}
	_, err := Call(tc.client, "server", reqEcho, md, []byte("slow"), 15*time.Millisecond, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	// Let the delayed response land on the (now unregistered) request id.
	deadline := time.Now().Add(time.Second)
	for tc.client.Stats().StaleResponses == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := tc.client.Stats()
	if st.StaleResponses == 0 {
		t.Error("late response was not counted stale")
	}
	if st.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", st.Cancelled)
	}
	if n := tc.client.PendingCount(); n != 0 {
		t.Errorf("pending map leaked %d entries", n)
	}
}

// flakyTransport fails Send for a chosen set of destinations.
type flakyTransport struct {
	mu   sync.Mutex
	fail map[string]bool
	sent []string
}

func (f *flakyTransport) Send(to string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail[to] {
		return errors.New("link down")
	}
	f.sent = append(f.sent, to)
	return nil
}

func (f *flakyTransport) Recv() <-chan simnet.Packet { return nil }
func (f *flakyTransport) Charge(int)                 {}
func (f *flakyTransport) LocalAddr() string          { return "flaky" }
func (f *flakyTransport) Close() error               { return nil }

// TestTxBurstPartialFailure checks that one dead destination does not
// take down the rest of a transmit batch: the burst keeps sending,
// aggregates the errors, and counts the drops.
func TestTxBurstPartialFailure(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	tr := &flakyTransport{fail: map[string]bool{"dead-1": true, "dead-2": true}}
	ep, err := NewEndpoint(Config{NodeID: 1, Transport: tr, NetworkKey: key, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	for i, to := range []string{"dead-1", "alive-1", "dead-2", "alive-2"} {
		ep.Enqueue(to, reqEcho, seal.MsgMetadata{TxID: uint64(i + 1), OpID: 1}, nil, nil)
	}
	burstErr := ep.TxBurst()
	if burstErr == nil {
		t.Fatal("TxBurst returned nil despite failing sends")
	}
	if got := len(tr.sent); got != 2 {
		t.Errorf("sent %d messages (%v), want the 2 live destinations", got, tr.sent)
	}
	if got := ep.Stats().TxDropped; got != 2 {
		t.Errorf("TxDropped = %d, want 2", got)
	}
}

// TestEnqueueCloseRace races Enqueue against Close: every Pending handed
// out must complete (response or ErrClosed) once Close returns — an
// entry inserted after Close drained the map would otherwise park its
// caller for the full timeout, contradicting Close's contract.
func TestEnqueueCloseRace(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		tr := &flakyTransport{}
		ep, err := NewEndpoint(Config{NodeID: 1, Transport: tr, NetworkKey: key, Secure: true})
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		pendings := make([][]*Pending, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					p := ep.Enqueue("peer", reqEcho, seal.MsgMetadata{TxID: uint64(i + 1), OpID: 1}, nil, nil)
					pendings[w] = append(pendings[w], p)
				}
			}()
		}
		close(start)
		ep.Close()
		wg.Wait()
		for w := range pendings {
			for i, p := range pendings[w] {
				if !p.Done() {
					t.Fatalf("round %d: pending %d/%d not completed after Close", round, w, i)
				}
			}
		}
		if n := ep.PendingCount(); n != 0 {
			t.Fatalf("round %d: pending map leaked %d entries after Close", round, n)
		}
	}
}

// TestHandlerPanicContained registers a panicking handler: the poller
// must survive, the caller must get an error reply, and later requests
// must still be served.
func TestHandlerPanicContained(t *testing.T) {
	tc := newTestCluster(t, true)
	const reqPanic = 9
	tc.server.Register(reqPanic, func(r *Request) {
		panic("handler exploded")
	})
	_, err := Call(tc.client, "server", reqPanic, seal.MsgMetadata{TxID: 1, OpID: 1}, nil, time.Second, nil)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("got %v, want remote panic error", err)
	}
	if got := tc.server.Stats().HandlerPanics; got != 1 {
		t.Errorf("HandlerPanics = %d, want 1", got)
	}
	// The event loop must still be alive.
	resp, err := Call(tc.client, "server", reqEcho, seal.MsgMetadata{TxID: 2, OpID: 1}, []byte("still here"), time.Second, nil)
	if err != nil || string(resp) != "still here" {
		t.Fatalf("echo after panic: %q, %v", resp, err)
	}
}

// TestCallRetryRecoversFromLoss drops the first attempts' request
// packets: a Call retried on the ladder, under a fresh operation id per
// attempt, must eventually succeed, executing the handler exactly once
// and counting each re-send.
func TestCallRetryRecoversFromLoss(t *testing.T) {
	tc := newTestCluster(t, true)
	var dropped atomic.Int64
	tc.net.SetAdversary(simnet.FuncAdversary(func(pkt simnet.Packet) simnet.Verdict {
		if pkt.From == "client" && dropped.Load() < 2 {
			dropped.Add(1)
			return simnet.Verdict{Drop: true}
		}
		return simnet.Verdict{}
	}))
	var resp []byte
	var err error
	for retry := tc.client.Retry(4, 5*time.Millisecond, RetryCap, nil); ; {
		md := seal.MsgMetadata{TxID: 7, OpID: tc.client.NextOpID()}
		resp, err = Call(tc.client, "server", reqEcho, md, []byte("retry"), 30*time.Millisecond, nil)
		if !errors.Is(err, ErrTimeout) || !retry.Next() {
			break
		}
	}
	if err != nil {
		t.Fatalf("retried Call: %v", err)
	}
	if got := tc.client.Stats().Retries; got != 2 {
		t.Errorf("Retries = %d, want 2 (one per dropped attempt)", got)
	}
	if string(resp) != "retry" {
		t.Errorf("resp = %q", resp)
	}
	if got := tc.executed.Load(); got != 1 {
		t.Errorf("handler executed %d times, want 1", got)
	}
	if n := tc.client.PendingCount(); n != 0 {
		t.Errorf("pending map leaked %d entries", n)
	}
}

// TestFanout: a fan-out returns as soon as `need` destinations answered
// without error (or all answered, or the timeout passed), reports each
// destination's outcome in address order, and — above all — leaves no
// request registered, however many destinations are dead.
func TestFanout(t *testing.T) {
	testBothModes(t, func(t *testing.T, secure bool) {
		tc := newTestCluster(t, secure)
		addrs := []string{"server", "nobody-home", "server"}
		md := seal.MsgMetadata{TxID: 9}
		const timeout = 2 * time.Second

		// need = 2 of 3: the two live answers end the wait long before the
		// timeout; the dead destination is abandoned at return.
		start := time.Now()
		replies := Fanout(tc.client, addrs, reqEcho, md, []byte("fan"), 2, timeout, nil)
		if elapsed := time.Since(start); elapsed >= timeout {
			t.Errorf("quorum fan-out took %v: it waited out the dead destination", elapsed)
		}
		for i, want := range []bool{true, false, true} {
			if ok := replies[i].Err == nil && string(replies[i].Resp) == "fan"; ok != want {
				t.Errorf("reply %d = %q/%v, answered want %v", i, replies[i].Resp, replies[i].Err, want)
			}
		}
		if !errors.Is(replies[1].Err, ErrTimeout) {
			t.Errorf("dead destination: got %v, want ErrTimeout", replies[1].Err)
		}

		// need = all: only the timeout ends the wait on a dead destination.
		replies = Fanout(tc.client, addrs, reqEcho, md, nil, len(addrs), 30*time.Millisecond, nil)
		if replies[0].Err != nil || !errors.Is(replies[1].Err, ErrTimeout) || replies[2].Err != nil {
			t.Errorf("all-of-3 fan-out: %v / %v / %v", replies[0].Err, replies[1].Err, replies[2].Err)
		}

		// Error replies are answers: once everyone has answered there is
		// nothing left to wait for, even though `need` was never met.
		start = time.Now()
		replies = Fanout(tc.client, addrs[:1], reqFail, md, nil, 1, timeout, nil)
		if elapsed := time.Since(start); elapsed >= timeout || !errors.Is(replies[0].Err, ErrRemote) {
			t.Errorf("all-answered fan-out: %v after %v, want the remote error at once", replies[0].Err, elapsed)
		}

		if n := tc.client.PendingCount(); n != 0 {
			t.Errorf("fan-outs left %d requests registered", n)
		}
		s := tc.client.Stats()
		if s.Requests != s.Delivered+s.Cancelled+s.Orphaned {
			t.Errorf("lifecycle law broken: enqueued %d != delivered %d + cancelled %d + orphaned %d",
				s.Requests, s.Delivered, s.Cancelled, s.Orphaned)
		}
	})
}
