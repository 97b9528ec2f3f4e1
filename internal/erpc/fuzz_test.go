package erpc

import (
	"testing"

	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// sinkTransport swallows sends; the fuzz harness feeds packets straight
// into dispatch, so nothing needs to come back out.
type sinkTransport struct{ addr string }

func (s *sinkTransport) Send(string, []byte) error  { return nil }
func (s *sinkTransport) Recv() <-chan simnet.Packet { return nil }
func (s *sinkTransport) Charge(int)                 {}
func (s *sinkTransport) LocalAddr() string          { return s.addr }
func (s *sinkTransport) Close() error               { return nil }

// FuzzFrameDecode feeds arbitrary wire bytes through the full inbound
// path — header parse, plaintext metadata decode, sealed-message
// authentication, replay-cache check, handler dispatch, reply encode —
// on both a plaintext and a secure endpoint. Malformed or tampered
// frames must be dropped with an error; nothing may panic, and on the
// secure endpoint nothing unauthenticated may reach a handler.
func FuzzFrameDecode(f *testing.F) {
	plain, err := NewEndpoint(Config{NodeID: 1, Transport: &sinkTransport{addr: "plain"}})
	if err != nil {
		f.Fatal(err)
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		f.Fatal(err)
	}
	sec, err := NewEndpoint(Config{
		NodeID: 2, Transport: &sinkTransport{addr: "sec"},
		Secure: true, NetworkKey: key,
	})
	if err != nil {
		f.Fatal(err)
	}
	var handled int
	echo := func(r *Request) { handled++; r.Reply(r.Payload) }
	plain.Register(0x10, echo)
	sec.Register(0x10, echo)

	// Seed corpus: well-formed frames from both codecs, truncations,
	// version/flag mutants, and junk.
	md := seal.MsgMetadata{NodeID: 9, TxID: 7, OpID: 3, KeyLen: 5, DataLen: 5, Seq: 77}
	goodPlain := plain.encode(0x10, 0, 77, &md, []byte("hello"))
	mdSec := md
	goodSec := sec.encode(0x10, 0, 77, &mdSec, []byte("hello"))
	f.Add(goodPlain)
	f.Add(goodSec)
	f.Add(goodPlain[:len(goodPlain)-3])
	f.Add(goodSec[:headerLen+1])
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	mutant := append([]byte(nil), goodSec...)
	mutant[2] |= flagPlaintext // downgrade attack
	f.Add(mutant)
	resp := append([]byte(nil), goodPlain...)
	resp[2] |= flagResponse // stale response path
	f.Add(resp)

	f.Fuzz(func(t *testing.T, data []byte) {
		plain.dispatch("peer", data)
		sec.dispatch("peer", data)
		// Drain reply queues so a long fuzz run cannot accumulate them.
		if err := plain.TxBurst(); err != nil {
			t.Fatalf("plain TxBurst: %v", err)
		}
		if err := sec.TxBurst(); err != nil {
			t.Fatalf("sec TxBurst: %v", err)
		}
	})
}

// FuzzReplayCache drives the generational (node, tx, op) dedup cache
// with fuzzer-chosen triples: it must never panic, must dedup an
// immediate duplicate, and must return the remembered reply for it.
func FuzzReplayCache(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), 4)
	f.Add(uint64(0), uint64(0), uint64(0), 1)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), 64)
	f.Fuzz(func(t *testing.T, node, tx, op uint64, window int) {
		if window <= 0 || window > 1<<16 {
			window = 16
		}
		rc := newReplayCache(window)
		md := seal.MsgMetadata{NodeID: node, TxID: tx, OpID: op}
		if _, dup := rc.check(md); dup {
			t.Fatal("fresh triple reported as duplicate")
		}
		rc.storeReply(md, []byte("cached"))
		cached, dup := rc.check(md)
		if !dup {
			t.Fatal("immediate duplicate not detected")
		}
		if string(cached) != "cached" {
			t.Fatalf("cached reply = %q", cached)
		}
		// A different op on the same (node, tx) is a distinct request.
		md.OpID = op + 1
		if _, dup := rc.check(md); dup && op+1 != op {
			t.Fatal("distinct op reported as duplicate")
		}
	})
}
