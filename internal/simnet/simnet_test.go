package simnet

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func pair(t *testing.T, cfg LinkConfig) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	n := New(cfg, 1)
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, a, b
}

// recvWithin takes one packet off e's receive channel: whatever is
// already waiting, else the first to arrive within d (0 never blocks).
func recvWithin(e *Endpoint, d time.Duration) (Packet, bool) {
	select {
	case pkt, ok := <-e.RecvCh():
		return pkt, ok
	default:
	}
	if d <= 0 {
		return Packet{}, false
	}
	select {
	case pkt, ok := <-e.RecvCh():
		return pkt, ok
	case <-time.After(d):
		return Packet{}, false
	}
}

func TestSendRecv(t *testing.T) {
	_, a, b := pair(t, LinkConfig{})
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	pkt, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if pkt.From != "a" || pkt.To != "b" || string(pkt.Data) != "hello" {
		t.Errorf("pkt = %+v", pkt)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, a, b := pair(t, LinkConfig{})
	data := []byte("original")
	if err := a.Send("b", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // mutate after send
	pkt, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt.Data) != "original" {
		t.Error("payload must be copied at send time")
	}
}

func TestUnknownAddr(t *testing.T) {
	_, a, _ := pair(t, LinkConfig{})
	if err := a.Send("nope", []byte("x")); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("got %v, want ErrUnknownAddr", err)
	}
}

func TestDuplicateListen(t *testing.T) {
	n := New(LinkConfig{}, 1)
	defer n.Close()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("got %v, want ErrAddrInUse", err)
	}
}

func TestLatency(t *testing.T) {
	_, a, b := pair(t, LinkConfig{Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("delivered after %v, want >= 30ms", elapsed)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	// 1 MiB/s link, two 100 KiB packets: second arrives ~200ms in.
	_, a, b := pair(t, LinkConfig{BandwidthBps: 1 << 20})
	payload := make([]byte, 100<<10)
	start := time.Now()
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("two packets in %v; bandwidth not serialized", elapsed)
	}
}

func TestLoss(t *testing.T) {
	n, a, b := pair(t, LinkConfig{LossRate: 1.0})
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := recvWithin(b, 0); ok {
		t.Error("100% loss must drop everything")
	}
	if n.Stats().DroppedLoss != 10 {
		t.Errorf("DroppedLoss = %d", n.Stats().DroppedLoss)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	n.Partition("a", "b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err) // partitions are silent
	}
	if _, ok := recvWithin(b, 0); ok {
		t.Error("partitioned packet delivered")
	}
	n.Heal("a", "b")
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
}

func TestAdversaryDrop(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	n.SetAdversary(FuncAdversary(func(Packet) Verdict { return Verdict{Drop: true} }))
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(b, 0); ok {
		t.Error("adversary-dropped packet delivered")
	}
	if n.Stats().DroppedAdversary != 1 {
		t.Errorf("DroppedAdversary = %d", n.Stats().DroppedAdversary)
	}
}

func TestAdversaryMutate(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	n.SetAdversary(FuncAdversary(func(Packet) Verdict {
		return Verdict{Mutate: func(d []byte) []byte {
			out := bytes.Clone(d)
			out[0] ^= 0xFF
			return out
		}}
	}))
	if err := a.Send("b", []byte{0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	pkt, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Data[0] != 0xFF {
		t.Error("mutation not applied")
	}
}

func TestAdversaryDuplicate(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	n.SetAdversary(FuncAdversary(func(Packet) Verdict { return Verdict{Duplicates: 2} }))
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := recvWithin(b, time.Second); !ok {
			t.Fatalf("copy %d not delivered", i)
		}
	}
}

func TestRecorderReplay(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	rec := &Recorder{}
	n.SetAdversary(rec)
	if err := a.Send("b", []byte("secret-op")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	n.SetAdversary(nil) // stop recording, then replay the capture
	if err := rec.Replay(n); err != nil {
		t.Fatal(err)
	}
	pkt, ok := recvWithin(b, time.Second)
	if !ok {
		t.Fatal("replayed packet not delivered")
	}
	if string(pkt.Data) != "secret-op" || pkt.From != "a" {
		t.Errorf("replayed pkt = %+v", pkt)
	}
}

func TestRecorderLimit(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	rec := &Recorder{Limit: 2}
	n.SetAdversary(rec)
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rec.Captured()); got != 2 {
		t.Errorf("captured %d packets, want Limit=2", got)
	}
}

func TestCorrupterAlwaysCorrupts(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	n.SetAdversary(NewCorrupter(1.0, 7))
	orig := []byte("payload-bytes")
	if err := a.Send("b", orig); err != nil {
		t.Fatal(err)
	}
	pkt, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pkt.Data, orig) {
		t.Error("corrupter must modify the payload")
	}
}

func TestPollNonBlocking(t *testing.T) {
	_, _, b := pair(t, LinkConfig{})
	done := make(chan struct{})
	var got atomic.Bool
	go func() {
		_, ok := recvWithin(b, 0)
		got.Store(ok)
		close(done)
	}()
	select {
	case <-done:
		if got.Load() {
			t.Error("poll returned a phantom packet")
		}
	case <-time.After(time.Second):
		t.Error("poll blocked")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n, _, b := pair(t, LinkConfig{})
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	n.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Error("Recv not unblocked by Close")
	}
}

func TestEndpointCloseFreesAddress(t *testing.T) {
	n := New(LinkConfig{}, 1)
	defer n.Close()
	a, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := n.Listen("x"); err != nil {
		t.Errorf("address not freed after Close: %v", err)
	}
}

func TestStatsDelivered(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	for i := 0; i < 5; i++ {
		if err := a.Send("b", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	s := n.Stats()
	if s.Sent != 5 || s.Delivered != 5 || s.BytesDelivered != 500 {
		t.Errorf("stats = %+v", s)
	}
}

// TestStatsLaw: the fabric law holds once every packet sent was
// received, and a packet the books lost (a send counted, no delivery or
// drop) trips it.
func TestStatsLaw(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if err := s.Law(); err != nil {
		t.Fatalf("drained network: %v", err)
	}
	s.Sent++
	if err := s.Law(); err == nil || !strings.Contains(err.Error(), "simnet law violated: 1 packets") {
		t.Fatalf("a packet neither delivered nor dropped: %v", err)
	}
}

// TestStatsBalance checks the package comment's law where it used to
// come up short: an inbox nobody reads overruns, the adversary's extra
// copies are packets too, and a receiver that closes under a packet in
// flight drops it — each counted, none lost from the books.
func TestStatsBalance(t *testing.T) {
	n, a, b := pair(t, LinkConfig{})
	n.SetAdversary(FuncAdversary(func(Packet) Verdict { return Verdict{Duplicates: 1} }))
	const sends = 3000 // two copies each into b's 4096 slots
	for i := 0; i < sends; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	slots := uint64(cap(b.inbox))
	s := n.Stats()
	if s.Law() != nil || s.Sent != sends || s.Duplicated != sends ||
		s.Delivered != slots || s.DroppedOverrun != 2*sends-slots {
		t.Fatalf("after overrunning an unread inbox: %v, stats %+v", s.Law(), s)
	}

	n.SetAdversary(nil)
	n.SetLink("a", "b", LinkConfig{Latency: 20 * time.Millisecond})
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().Law() != nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := n.Stats(); s.Law() != nil || s.DroppedOverrun != 2*sends-slots+1 {
		t.Fatalf("after the receiver closed under a packet in flight: %v, stats %+v", s.Law(), s)
	}
}

// TestLinkNeverReorders: a packet the adversary holds back holds back
// the packets sent after it on its link, however short their own transit,
// and only on its link: a packet to another receiver goes straight
// through.
func TestLinkNeverReorders(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  LinkConfig
	}{{"zero-config", LinkConfig{}}, {"5GBps", LinkConfig{BandwidthBps: 5 << 30}}} {
		t.Run(c.name, func(t *testing.T) {
			n, a, b := pair(t, c.cfg)
			other, err := n.Listen("c")
			if err != nil {
				t.Fatal(err)
			}
			var held atomic.Bool
			n.SetAdversary(FuncAdversary(func(pkt Packet) Verdict {
				if pkt.To == "b" && held.CompareAndSwap(false, true) {
					return Verdict{Delay: 2 * time.Millisecond}
				}
				return Verdict{}
			}))
			for i := 0; i < 3; i++ {
				if err := a.Send("b", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Send("c", []byte{9}); err != nil {
				t.Fatal(err)
			}
			if _, ok := recvWithin(other, 0); !ok {
				t.Error("a packet on a second link waited behind the held one")
			}
			var got []byte
			for i := 0; i < 3; i++ {
				pkt, ok := recvWithin(b, time.Second)
				if !ok {
					t.Fatalf("packet %d never arrived (got %v)", i, got)
				}
				got = append(got, pkt.Data[0])
			}
			if !bytes.Equal(got, []byte{0, 1, 2}) {
				t.Errorf("received %v, want send order [0 1 2]", got)
			}
			deadline := time.Now().Add(time.Second)
			for n.Stats().Law() != nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := n.Stats().Law(); err != nil {
				t.Errorf("after every packet arrived: %v", err)
			}
		})
	}
}
