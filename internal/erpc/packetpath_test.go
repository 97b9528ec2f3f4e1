package erpc

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// waitFor polls cond until it holds or two seconds pass.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// goroutines returns the stacks of the goroutines running this module's
// code outside a test function. runtime.NumGoroutine also counts
// goroutines the runtime and the standard library run on their own
// schedule, which made a count taken around them flaky.
func goroutines() [][]byte {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var gs [][]byte
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("treaty/internal/")) && !bytes.Contains(g, []byte("testing.tRunner")) {
			gs = append(gs, g)
		}
	}
	return gs
}

// stacks is goroutines' stacks as one text, for a failure message.
func stacks() []byte { return bytes.Join(goroutines(), []byte("\n\n")) }

// TestOneGoroutinePerEndpoint pins the packet path's shape: an endpoint
// under traffic runs its poller and nothing else — no goroutine stands
// between the fabric's inbox and the poller — and everything exits on
// Stop / Close / Network.Close. It starts once an earlier test's
// goroutines have exited, so both counts are exact.
func TestOneGoroutinePerEndpoint(t *testing.T) {
	if !waitFor(func() bool { return len(goroutines()) == 0 }) {
		t.Fatalf("goroutines of an earlier test still run module code:\n%s", stacks())
	}
	n := simnet.New(simnet.LinkConfig{Latency: 100 * time.Microsecond}, 3)
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	var eps []*Endpoint
	var pollers []*Poller
	for i, addr := range []string{"client", "server"} {
		nep, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(Config{NodeID: uint64(i + 1), Transport: NewSimTransport(nep, nil, KindDPDK), NetworkKey: key, Secure: true})
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
		pollers = append(pollers, StartPoller(ep))
	}
	eps[1].Register(reqEcho, func(r *Request) { r.Reply(r.Payload) })
	for i := 0; i < 50; i++ {
		md := seal.MsgMetadata{TxID: uint64(i + 1), OpID: 1}
		if _, err := Call(eps[0], "server", reqEcho, md, []byte("ping"), time.Second, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Two pollers, and one drainer per direction of the one link in use.
	if !waitFor(func() bool { return len(goroutines()) == 4 }) {
		t.Errorf("%d goroutines under traffic, want 4 (2 pollers + 2 link drainers):\n%s", len(goroutines()), stacks())
	}
	for _, p := range pollers {
		p.Stop()
	}
	for _, ep := range eps {
		ep.Close()
	}
	n.Close()
	if !waitFor(func() bool { return len(goroutines()) == 0 }) {
		t.Errorf("%d goroutines after shutdown, want 0:\n%s", len(goroutines()), stacks())
	}
}

// TestMalformedFramesDropped sends what an attacker on the fabric can: a
// runt frame, a frame with a bogus wire version and a well-framed
// message whose body fails authentication. Each is counted as an
// authentication drop, none reaches a handler or counts as received, and
// the endpoint serves the next sealed call.
func TestMalformedFramesDropped(t *testing.T) {
	tc := newTestCluster(t, true)
	raw, err := tc.net.Listen("raw")
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{
		"runt":            {0xde},
		"bad version":     {0xff, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b},
		"unauthenticated": append([]byte{wireVersion, reqEcho, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, "not a sealed body"...),
	}
	for name, frame := range frames {
		before := tc.server.Stats()
		if err := raw.Send("server", frame); err != nil {
			t.Fatal(err)
		}
		if !waitFor(func() bool { return tc.server.Stats().AuthDropped == before.AuthDropped+1 }) {
			t.Errorf("%s frame: msg.auth_dropped did not rise by one: %+v", name, tc.server.Stats())
		}
		if got := tc.server.Stats().Received; got != before.Received {
			t.Errorf("%s frame: counted as received (%d → %d)", name, before.Received, got)
		}
	}
	if tc.executed.Load() != 0 {
		t.Errorf("a malformed frame reached a handler")
	}
	md := seal.MsgMetadata{TxID: 1000, OpID: 1}
	if resp, err := Call(tc.client, "server", reqEcho, md, []byte("after-garbage"), time.Second, nil); err != nil || string(resp) != "after-garbage" {
		t.Fatalf("call after garbage: resp=%q err=%v", resp, err)
	}
}
