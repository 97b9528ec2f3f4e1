package erpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/seal"
	"treaty/internal/simnet"
)

const (
	reqEcho   = 1
	reqFail   = 2
	reqAdd    = 3
	reqNoResp = 4
)

// testCluster is two endpoints (client, server) over a simnet.
type testCluster struct {
	net      *simnet.Network
	client   *Endpoint
	server   *Endpoint
	pollers  []*Poller
	netKey   seal.Key
	executed atomic.Uint64
}

func newTestCluster(t *testing.T, secure bool) *testCluster {
	t.Helper()
	n := simnet.New(simnet.LinkConfig{}, 42)
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{net: n, netKey: key}

	mk := func(addr string, nodeID uint64) *Endpoint {
		nep, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(Config{
			NodeID:     nodeID,
			Transport:  NewSimTransport(nep, nil, KindDPDK),
			NetworkKey: key,
			Secure:     secure,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	tc.client = mk("client", 1)
	tc.server = mk("server", 2)

	tc.server.Register(reqEcho, func(r *Request) {
		tc.executed.Add(1)
		r.Reply(r.Payload)
	})
	tc.server.Register(reqFail, func(r *Request) {
		r.ReplyError("deliberate failure")
	})
	tc.server.Register(reqAdd, func(r *Request) {
		r.Reply([]byte{r.Payload[0] + r.Payload[1]})
	})
	tc.server.Register(reqNoResp, func(r *Request) {
		// Asynchronous handler: reply later from another goroutine.
		go func() {
			time.Sleep(5 * time.Millisecond)
			r.Reply([]byte("late"))
		}()
	})

	tc.pollers = []*Poller{StartPoller(tc.client), StartPoller(tc.server)}
	t.Cleanup(func() {
		for _, p := range tc.pollers {
			p.Stop()
		}
		tc.client.Close()
		tc.server.Close()
		n.Close()
	})
	return tc
}

func testBothModes(t *testing.T, fn func(t *testing.T, secure bool)) {
	t.Run("secure", func(t *testing.T) { fn(t, true) })
	t.Run("plain", func(t *testing.T) { fn(t, false) })
}

func TestEchoRoundTrip(t *testing.T) {
	testBothModes(t, func(t *testing.T, secure bool) {
		tc := newTestCluster(t, secure)
		md := seal.MsgMetadata{TxID: 1, OpID: 1}
		resp, err := Call(tc.client, "server", reqEcho, md, []byte("ping"), time.Second, nil)
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if string(resp) != "ping" {
			t.Errorf("resp = %q", resp)
		}
	})
}

func TestRemoteError(t *testing.T) {
	tc := newTestCluster(t, true)
	md := seal.MsgMetadata{TxID: 2, OpID: 1}
	_, err := Call(tc.client, "server", reqFail, md, nil, time.Second, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	if want := "deliberate failure"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q should carry %q", err, want)
	}
}

func TestNoHandler(t *testing.T) {
	tc := newTestCluster(t, true)
	md := seal.MsgMetadata{TxID: 3, OpID: 1}
	_, err := Call(tc.client, "server", 99, md, nil, time.Second, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v, want remote no-handler error", err)
	}
}

func TestAsyncHandlerRepliesLater(t *testing.T) {
	tc := newTestCluster(t, true)
	md := seal.MsgMetadata{TxID: 4, OpID: 1}
	resp, err := Call(tc.client, "server", reqNoResp, md, nil, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "late" {
		t.Errorf("resp = %q", resp)
	}
}

func TestEnqueueDoesNotTransmit(t *testing.T) {
	// Without running TxBurst/RunOnce on the client, the request must
	// stay queued (eRPC semantics: enqueue ≠ transmit).
	n := simnet.New(simnet.LinkConfig{}, 1)
	defer n.Close()
	cep, _ := n.Listen("c")
	sep, _ := n.Listen("s")
	key, _ := seal.NewRandomKey()
	client, err := NewEndpoint(Config{NodeID: 1, Transport: NewSimTransport(cep, nil, KindDPDK), NetworkKey: key, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	client.Enqueue("s", reqEcho, seal.MsgMetadata{TxID: 1, OpID: 1}, []byte("x"), nil)
	time.Sleep(10 * time.Millisecond)
	select {
	case <-sep.RecvCh():
		t.Fatal("message transmitted before TxBurst")
	default:
	}
	if err := client.TxBurst(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sep.RecvCh():
	case <-time.After(time.Second):
		t.Fatal("message not transmitted by TxBurst")
	}
}

func TestContinuationRunsOnCompletion(t *testing.T) {
	tc := newTestCluster(t, true)
	var fired atomic.Bool
	md := seal.MsgMetadata{TxID: 5, OpID: 1}
	pend := tc.client.Enqueue("server", reqEcho, md, []byte("x"), func(p *Pending) {
		fired.Store(true)
	})
	deadline := time.Now().Add(time.Second)
	for !pend.Done() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !pend.Done() || !fired.Load() {
		t.Fatal("continuation did not fire")
	}
}

func TestReplayedRequestNotReExecuted(t *testing.T) {
	tc := newTestCluster(t, true)
	rec := &simnet.Recorder{}
	tc.net.SetAdversary(rec)
	md := seal.MsgMetadata{TxID: 10, OpID: 1}
	if _, err := Call(tc.client, "server", reqEcho, md, []byte("once"), time.Second, nil); err != nil {
		t.Fatal(err)
	}
	execBefore := tc.executed.Load()
	tc.net.SetAdversary(nil)
	// Replay every captured packet (including the original request).
	if err := rec.Replay(tc.net); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := tc.executed.Load(); got != execBefore {
		t.Errorf("handler executed %d times after replay, want %d", got, execBefore)
	}
	if tc.server.Stats().ReplayDropped == 0 {
		t.Error("server must count the replay as dropped")
	}
}

func TestDuplicatedPacketsAtMostOnce(t *testing.T) {
	tc := newTestCluster(t, true)
	tc.net.SetAdversary(simnet.FuncAdversary(func(p simnet.Packet) simnet.Verdict {
		if p.To == "server" {
			return simnet.Verdict{Duplicates: 3}
		}
		return simnet.Verdict{}
	}))
	md := seal.MsgMetadata{TxID: 11, OpID: 1}
	if _, err := Call(tc.client, "server", reqEcho, md, []byte("dup"), time.Second, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := tc.executed.Load(); got != 1 {
		t.Errorf("executed %d times under duplication, want exactly 1", got)
	}
}

func TestTamperedMessageDropped(t *testing.T) {
	tc := newTestCluster(t, true)
	tc.net.SetAdversary(simnet.NewCorrupter(1.0, 3))
	md := seal.MsgMetadata{TxID: 12, OpID: 1}
	_, err := Call(tc.client, "server", reqEcho, md, []byte("x"), 100*time.Millisecond, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("corrupted traffic should time out, got %v", err)
	}
	if tc.server.Stats().AuthDropped == 0 && tc.client.Stats().AuthDropped == 0 {
		t.Error("someone must have dropped the tampered message")
	}
	if tc.executed.Load() != 0 {
		t.Error("tampered request must not execute")
	}
}

func TestPlaintextDowngradeRejected(t *testing.T) {
	// An attacker who re-frames a message as plaintext must be rejected
	// by a secure endpoint.
	n := simnet.New(simnet.LinkConfig{}, 1)
	defer n.Close()
	cep, _ := n.Listen("c")
	sep, _ := n.Listen("s")
	key, _ := seal.NewRandomKey()
	// Client speaks plaintext, server requires security.
	client, err := NewEndpoint(Config{NodeID: 1, Transport: NewSimTransport(cep, nil, KindDPDK), Secure: false})
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Bool
	server, err := NewEndpoint(Config{NodeID: 2, Transport: NewSimTransport(sep, nil, KindDPDK), NetworkKey: key, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	server.Register(reqEcho, func(r *Request) { executed.Store(true); r.Reply(nil) })
	ps := StartPoller(server)
	defer ps.Stop()
	client.Enqueue("s", reqEcho, seal.MsgMetadata{TxID: 1, OpID: 1}, []byte("x"), nil)
	if err := client.TxBurst(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if executed.Load() {
		t.Error("plaintext message executed on secure endpoint")
	}
	if server.Stats().AuthDropped == 0 {
		t.Error("downgrade must be counted as auth drop")
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	tc := newTestCluster(t, true)
	const calls = 64
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			md := seal.MsgMetadata{TxID: 100 + uint64(i), OpID: 1}
			resp, err := Call(tc.client, "server", reqAdd, md, []byte{byte(i), 10}, 2*time.Second, nil)
			if err == nil && resp[0] != byte(i)+10 {
				err = fmt.Errorf("wrong sum for %d: %d", i, resp[0])
			}
			errs <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCallTimeoutOnPartition(t *testing.T) {
	tc := newTestCluster(t, true)
	tc.net.Partition("client", "server")
	md := seal.MsgMetadata{TxID: 200, OpID: 1}
	_, err := Call(tc.client, "server", reqEcho, md, []byte("x"), 50*time.Millisecond, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

func TestDoubleReplyIgnored(t *testing.T) {
	n := simnet.New(simnet.LinkConfig{}, 1)
	defer n.Close()
	cep, _ := n.Listen("c")
	sep, _ := n.Listen("s")
	key, _ := seal.NewRandomKey()
	client, _ := NewEndpoint(Config{NodeID: 1, Transport: NewSimTransport(cep, nil, KindDPDK), NetworkKey: key, Secure: true})
	server, _ := NewEndpoint(Config{NodeID: 2, Transport: NewSimTransport(sep, nil, KindDPDK), NetworkKey: key, Secure: true})
	server.Register(reqEcho, func(r *Request) {
		r.Reply([]byte("first"))
		r.Reply([]byte("second")) // must be dropped
	})
	p1, p2 := StartPoller(client), StartPoller(server)
	defer p1.Stop()
	defer p2.Stop()
	resp, err := Call(client, "s", reqEcho, seal.MsgMetadata{TxID: 1, OpID: 1}, nil, time.Second, nil)
	if err != nil || string(resp) != "first" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
}

func TestReplayCacheEviction(t *testing.T) {
	rc := newReplayCache(8)
	for i := uint64(0); i < 100; i++ {
		md := seal.MsgMetadata{NodeID: 1, TxID: i, OpID: 1}
		if _, dup := rc.check(md); dup {
			t.Fatalf("fresh op %d flagged duplicate", i)
		}
	}
	// Recent entries are still remembered.
	md := seal.MsgMetadata{NodeID: 1, TxID: 99, OpID: 1}
	if _, dup := rc.check(md); !dup {
		t.Error("most recent op must still be deduped")
	}
}
