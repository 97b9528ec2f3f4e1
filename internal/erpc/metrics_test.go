package erpc

import (
	"strings"
	"sync"
	"testing"
	"time"

	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// newMetricsPair boots a client/server endpoint pair with a metrics
// registry attached to the client.
func newMetricsPair(t *testing.T) (client, server *Endpoint, reg *obs.Registry) {
	t.Helper()
	n := simnet.New(simnet.LinkConfig{}, 7)
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	mk := func(addr string, nodeID uint64, m *obs.Registry) *Endpoint {
		nep, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(Config{
			NodeID:     nodeID,
			Transport:  NewSimTransport(nep, nil, KindDPDK),
			NetworkKey: key,
			Secure:     true,
			Metrics:    m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	client = mk("client", 1, reg)
	server = mk("server", 2, nil)
	server.Register(reqEcho, func(r *Request) { r.Reply(r.Payload) })
	pollers := []*Poller{StartPoller(client), StartPoller(server)}
	t.Cleanup(func() {
		for _, p := range pollers {
			p.Stop()
		}
		client.Close()
		server.Close()
		n.Close()
	})
	return client, server, reg
}

// TestStatsRaceRegression hammers the endpoint's stat-bearing paths
// (Call, Abandon, Stats, metrics snapshots) from many goroutines. Under
// -race this test fails if any endpoint statistic regresses to a plain
// unsynchronized int (the pre-hardening layout): Stats() and the
// registry's CounterFuncs read every field concurrently with the data
// path mutating them.
func TestStatsRaceRegression(t *testing.T) {
	client, _, reg := newMetricsPair(t)
	const workers, per = 8, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Dedicated readers: Stats() and Snapshot() race against writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = client.Stats()
				_ = reg.Snapshot()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	var callWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		callWG.Add(1)
		go func(w int) {
			defer callWG.Done()
			for i := 0; i < per; i++ {
				md := seal.MsgMetadata{TxID: uint64(w + 1), OpID: uint64(i + 1)}
				if i%5 == 4 {
					// Exercise Abandon: a 0-timeout call cancels unless
					// the response wins the race.
					_, _ = Call(client, "server", reqEcho, md, []byte("x"), time.Microsecond, nil)
				} else {
					if _, err := Call(client, "server", reqEcho, md, []byte("x"), 2*time.Second, nil); err != nil {
						t.Errorf("call: %v", err)
						return
					}
				}
			}
		}(w)
	}
	callWG.Wait()
	close(stop)
	wg.Wait()

	// The endpoint's laws with all traffic quiesced.
	deadline := time.Now().Add(2 * time.Second)
	for err := reg.CheckLaws(); err != nil; err = reg.CheckLaws() {
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndpointLaws: the request and self laws hold after clean traffic,
// and each trips on its own violation: a request the endpoint addressed
// to itself, and an enqueued request no resolution accounts for.
func TestEndpointLaws(t *testing.T) {
	client, _, reg := newMetricsPair(t)
	if _, err := Call(client, "server", reqEcho, seal.MsgMetadata{TxID: 1, OpID: 1}, []byte("x"), 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.CheckLaws(); err != nil {
		t.Fatalf("clean traffic: %v", err)
	}
	client.Enqueue(client.LocalAddr(), reqEcho, seal.MsgMetadata{TxID: 1, OpID: 2}, nil, nil)
	if err := reg.CheckLaws(); err == nil || !strings.Contains(err.Error(), "erpc.req.self law violated: erpc.req.self=1 != sum()=0") {
		t.Fatalf("a request to the endpoint's own address: %v", err)
	}
	reg.CounterFunc("erpc.req.enqueued", func() uint64 { return client.Stats().Requests + 1 })
	if err := reg.CheckLaws(); err == nil || !strings.Contains(err.Error(), "erpc.req law violated: erpc.req.enqueued=3 != sum(") {
		t.Fatalf("an enqueued request never resolved nor pending: %v", err)
	}
}

// TestEndpointMetricsExport checks the registry view matches Stats()
// and that call latency histograms fill in.
func TestEndpointMetricsExport(t *testing.T) {
	client, _, reg := newMetricsPair(t)
	for i := 0; i < 20; i++ {
		md := seal.MsgMetadata{TxID: 1, OpID: uint64(i + 1)}
		if _, err := Call(client, "server", reqEcho, md, []byte("ping"), 2*time.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := client.Stats()
	snap := reg.Snapshot()
	if snap.Counter("erpc.req.enqueued") != s.Requests || s.Requests != 20 {
		t.Fatalf("enqueued: registry=%d stats=%d", snap.Counter("erpc.req.enqueued"), s.Requests)
	}
	if snap.Counter("erpc.req.delivered") != s.Delivered || s.Delivered != 20 {
		t.Fatalf("delivered: registry=%d stats=%d", snap.Counter("erpc.req.delivered"), s.Delivered)
	}
	lat := snap.Histograms["erpc.call.latency_ns"]
	if lat.Count != 20 || lat.P50 <= 0 {
		t.Fatalf("latency histogram not recorded: %+v", lat)
	}
	if snap.Gauge("erpc.req.pending") != 0 {
		t.Fatalf("pending gauge = %d, want 0", snap.Gauge("erpc.req.pending"))
	}
}

// TestCloseOrphansCounted: requests in flight when the endpoint closes
// are accounted as orphaned, keeping the conservation law intact.
func TestCloseOrphansCounted(t *testing.T) {
	n := simnet.New(simnet.LinkConfig{}, 9)
	defer n.Close()
	nep, err := n.Listen("lonely")
	if err != nil {
		t.Fatal(err)
	}
	key, _ := seal.NewRandomKey()
	reg := obs.NewRegistry()
	ep, err := NewEndpoint(Config{
		NodeID:     1,
		Transport:  NewSimTransport(nep, nil, KindDPDK),
		NetworkKey: key,
		Secure:     true,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue requests to a peer that never answers, then close.
	for i := 0; i < 5; i++ {
		ep.Enqueue("void", reqEcho, seal.MsgMetadata{TxID: 1, OpID: uint64(i + 1)}, nil, nil)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	// One more after close: fails immediately, still counted.
	p := ep.Enqueue("void", reqEcho, seal.MsgMetadata{TxID: 1, OpID: 9}, nil, nil)
	if p.err == nil {
		t.Fatal("enqueue after close must fail")
	}
	s := ep.Stats()
	if s.Requests != 6 || s.Orphaned != 6 {
		t.Fatalf("requests=%d orphaned=%d, want 6/6", s.Requests, s.Orphaned)
	}
	if err := reg.CheckLaws(); err != nil {
		t.Fatalf("after close: %v", err)
	}
}
