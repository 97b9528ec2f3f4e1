package counter

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// group is a test protection group with one client.
type group struct {
	net      *simnet.Network
	client   *Client
	replicas []*Replica
	addrs    []string
	pollers  []*erpc.Poller
	dir      string
	key      seal.Key
}

func newGroup(t *testing.T, n int, dir string, latency time.Duration) *group {
	t.Helper()
	g := &group{
		net: simnet.New(simnet.LinkConfig{Latency: latency}, 7),
		dir: dir,
	}
	var err error
	g.key, err = seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.addReplica(t, i)
	}
	cep, err := g.net.Listen("counter-client")
	if err != nil {
		t.Fatal(err)
	}
	clientEP, err := erpc.NewEndpoint(erpc.Config{
		NodeID:    100,
		Transport: erpc.NewSimTransport(cep, nil, erpc.KindDPDK),
		Secure:    true, NetworkKey: g.key,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.pollers = append(g.pollers, erpc.StartPoller(clientEP))
	g.client, err = NewClient(ClientConfig{
		Endpoint: clientEP,
		Replicas: g.addrs,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.client.Close()
		for _, p := range g.pollers {
			p.Stop()
		}
		g.net.Close()
	})
	return g
}

func (g *group) addReplica(t *testing.T, i int) {
	t.Helper()
	addr := fmt.Sprintf("counter-replica-%d", i)
	nep, err := g.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID:    uint64(i + 1),
		Transport: erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
		Secure:    true, NetworkKey: g.key,
	})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(addr)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch("counter-replica", enclave.RuntimeConfig{Mode: enclave.ModeNative})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(ep, encl, g.dir)
	if err != nil {
		t.Fatal(err)
	}
	g.replicas = append(g.replicas, r)
	g.addrs = append(g.addrs, addr)
	g.pollers = append(g.pollers, erpc.StartPoller(ep))
}

func TestStabilizeAndWait(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	h := g.client.Counter("wal-000001.log")
	h.Stabilize(5)
	if err := h.WaitStable(5); err != nil {
		t.Fatal(err)
	}
	if got := h.StableValue(); got != 5 {
		t.Errorf("StableValue = %d, want 5", got)
	}
	// All replicas confirmed (3-node group, quorum 2, but echo reaches all).
	count := 0
	for _, r := range g.replicas {
		if r.StableValue("wal-000001.log") == 5 {
			count++
		}
	}
	if count < 2 {
		t.Errorf("only %d replicas stable, want >= quorum", count)
	}
}

func TestBatchingCoversIntermediateValues(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	h := g.client.Counter("clog")
	for v := uint64(1); v <= 100; v++ {
		h.Stabilize(v)
	}
	if err := h.WaitStable(100); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitStable(50); err != nil {
		t.Fatal(err) // covered by the batch
	}
}

func TestWaitImpliesStabilize(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	h := g.client.Counter("manifest")
	// WaitStable without a prior Stabilize must still drive the protocol.
	done := make(chan error, 1)
	go func() { done <- h.WaitStable(7) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitStable hung")
	}
}

func TestIndependentCounters(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	a := g.client.Counter("wal-a")
	b := g.client.Counter("wal-b")
	a.Stabilize(10)
	if err := a.WaitStable(10); err != nil {
		t.Fatal(err)
	}
	if b.StableValue() != 0 {
		t.Error("counters must be independent per log file")
	}
}

func TestQuorumSurvivesMinorityFailure(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	// Partition one replica away: 2/3 still reach quorum.
	g.net.Partition("counter-client", g.addrs[2])
	h := g.client.Counter("wal")
	h.Stabilize(3)
	if err := h.WaitStable(3); err != nil {
		t.Fatalf("quorum with one replica down: %v", err)
	}
}

func TestNoQuorumFails(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	g.net.Partition("counter-client", g.addrs[1])
	g.net.Partition("counter-client", g.addrs[2])
	// Only 1/3 reachable: below quorum. Use a short-timeout client.
	cep, err := g.net.Listen("impatient")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID: 200, Transport: erpc.NewSimTransport(cep, nil, erpc.KindDPDK),
		Secure: true, NetworkKey: g.key,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := erpc.StartPoller(ep)
	defer p.Stop()
	g.net.Partition("impatient", g.addrs[1])
	g.net.Partition("impatient", g.addrs[2])
	cl, err := NewClient(ClientConfig{Endpoint: ep, Replicas: g.addrs, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := cl.Counter("wal")
	h.Stabilize(1)
	if err := h.WaitStable(1); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
}

func TestRecoverStableAfterReplicaRestart(t *testing.T) {
	dir := t.TempDir()
	g := newGroup(t, 3, dir, 0)
	h := g.client.Counter("wal-000001.log")
	h.Stabilize(42)
	if err := h.WaitStable(42); err != nil {
		t.Fatal(err)
	}
	// The round returned on a 2-of-3 quorum, which replica 0 may not be in
	// yet; its confirm is still on its way.
	confirmed := func() bool { return g.replicas[0].StableValue("wal-000001.log") == 42 }
	if !fibers.Wait(confirmed, nil, time.Now().Add(2*time.Second), nil) {
		t.Fatal("replica 0 never confirmed 42")
	}
	// "Restart" replica 0: new instance loading the sealed state.
	nep, err := g.net.Listen("counter-replica-0-restarted")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID: 1, Transport: erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
		Secure: true, NetworkKey: g.key,
	})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform("counter-replica-0")
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch("counter-replica", enclave.RuntimeConfig{Mode: enclave.ModeNative})
	if err != nil {
		t.Fatal(err)
	}
	_ = encl
	// Reuse the original enclave's platform identity is not possible (a
	// fresh platform has a fresh key), so reuse the original replica's
	// enclave for unsealing semantics via a fresh Replica on the same
	// state file but the original enclave handle.
	r2, err := NewReplica(ep, g.replicas[0].encl, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.StableValue("wal-000001.log"); got != 42 {
		t.Errorf("restarted replica stable = %d, want 42", got)
	}
	// Client-side recovery sees the value too.
	v, err := g.client.RecoverStable("wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("RecoverStable = %d, want 42", v)
	}
}

func TestSeedStable(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	h := g.client.Counter("wal")
	h.SeedStable(99)
	if h.StableValue() != 99 {
		t.Error("SeedStable must set the local view")
	}
	if err := h.WaitStable(99); err != nil {
		t.Fatal(err) // already covered, no protocol round needed
	}
}

func TestConcurrentStabilizers(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	h := g.client.Counter("wal")
	var wg sync.WaitGroup
	for i := 1; i <= 20; i++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			h.Stabilize(v)
			if err := h.WaitStable(v); err != nil {
				t.Errorf("WaitStable(%d): %v", v, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	if h.StableValue() < 20 {
		t.Errorf("StableValue = %d, want >= 20", h.StableValue())
	}
}

func TestMonotonicityUnderConcurrentUpdates(t *testing.T) {
	// Property: a replica's stable value never decreases, no matter how
	// updates and confirms interleave.
	g := newGroup(t, 3, "", 0)
	h := g.client.Counter("mono")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violation atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := g.replicas[0].StableValue("mono")
			if cur < prev {
				violation.Store(true)
				return
			}
			prev = cur
			time.Sleep(time.Millisecond)
		}
	}()
	for v := uint64(1); v <= 50; v++ {
		h.Stabilize(v)
	}
	if err := h.WaitStable(50); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if violation.Load() {
		t.Fatal("replica stable value decreased")
	}
}

func TestStabilizationLatencyReflectsNetwork(t *testing.T) {
	// With 500µs links, two protocol rounds cost >= 2ms — the paper's
	// reported ROTE latency.
	g := newGroup(t, 3, "", 500*time.Microsecond)
	h := g.client.Counter("wal")
	start := time.Now()
	h.Stabilize(1)
	if err := h.WaitStable(1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("stabilization took %v, want >= 2ms with 500µs links", elapsed)
	}
}

// TestQuorumRoundsLeaveNothingRegistered: with one of three replicas
// partitioned away every round still reaches its quorum, and the request
// to the dead replica — which will never be answered — must not stay in
// the endpoint's pending map. (It used to: two leaked entries per round,
// forever.) The erpc request-lifecycle law must hold throughout.
func TestQuorumRoundsLeaveNothingRegistered(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	g.net.Partition("counter-client", g.addrs[2])
	h := g.client.Counter("wal-000001.log")
	const rounds = 200
	for v := uint64(1); v <= rounds; v++ {
		h.Stabilize(v)
		if err := h.WaitStable(v); err != nil {
			t.Fatalf("round %d: %v", v, err)
		}
	}
	ep := g.client.ep
	pending := ep.PendingCount()
	if pending > len(g.addrs) {
		t.Errorf("PendingCount = %d after %d rounds, want at most one round's fan-out (%d)", pending, rounds, len(g.addrs))
	}
	s := ep.Stats()
	if s.Requests != s.Delivered+s.Cancelled+s.Orphaned+uint64(pending) {
		t.Errorf("lifecycle law broken: enqueued %d != delivered %d + cancelled %d + orphaned %d + pending %d",
			s.Requests, s.Delivered, s.Cancelled, s.Orphaned, pending)
	}
	if s.Cancelled < rounds {
		t.Errorf("vacuous: %d requests cancelled, want the dead replica's share of %d rounds", s.Cancelled, rounds)
	}
}

// TestFailWakesEveryWaiter: a handle that fails releases everything
// blocked on it — goroutines inside WaitStable and waiters blocked on
// the change channel (stable tokens, parked fibers) — with the failure.
func TestFailWakesEveryWaiter(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	for _, addr := range g.addrs {
		g.net.Partition("counter-client", addr) // no round can complete
	}
	h := g.client.Counter("wal")
	boom := errors.New("boom")
	const waiters = 4
	errs := make(chan error, 2*waiters)
	for i := 0; i < waiters; i++ {
		go func(v uint64) { errs <- h.WaitStable(v) }(uint64(i + 1))
		go func() {
			for {
				changed := h.Changed() // before the look, as StableToken.Poll does
				if err := h.Failed(); err != nil {
					errs <- err
					return
				}
				<-changed
			}
		}()
	}
	h.Fail(boom)
	for i := 0; i < 2*waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, boom) {
				t.Errorf("waiter got %v, want the handle's failure", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter outlived the handle's failure")
		}
	}
}

// TestCloseEndsBlockedWaits: Close fails every handle that has not failed
// with ErrClosed, so a WaitStable and a stable token's wait that no round
// can complete end with it, and a handle the client gives out afterwards
// starts failed.
func TestCloseEndsBlockedWaits(t *testing.T) {
	g := newGroup(t, 3, "", 0)
	for _, addr := range g.addrs {
		g.net.Partition("counter-client", addr) // no round can complete
	}
	h := g.client.Counter("wal")
	errs := make(chan error, 2)
	go func() { errs <- h.WaitStable(1) }()
	go func() {
		h.Stabilize(2)
		errs <- durlog.NewToken(h, 2).Wait()
	}()
	time.Sleep(20 * time.Millisecond) // let both block; either way each must end with ErrClosed
	g.client.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("waiter got %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a wait outlived Close")
		}
	}
	if err := g.client.Counter("later").WaitStable(1); !errors.Is(err, ErrClosed) {
		t.Errorf("WaitStable on a handle made after Close = %v, want ErrClosed", err)
	}
}
