package twopc

import (
	"encoding/binary"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/txn"
)

// fuzzSink is a Transport that swallows every outbound packet: the fuzz
// harness injects frames directly via HandlePacket, and nothing useful
// comes back out of a single-node stack talking to a fuzzer.
type fuzzSink struct{ addr string }

func (s *fuzzSink) Send(string, []byte) error  { return nil }
func (s *fuzzSink) Recv() <-chan simnet.Packet { return nil }
func (s *fuzzSink) Charge(int)                 {}
func (s *fuzzSink) LocalAddr() string          { return s.addr }
func (s *fuzzSink) Close() error               { return nil }

// fuzzFrame hand-builds a plaintext erpc frame carrying a 2PC protocol
// message: 12-byte header (version, reqType, flags, reqID) followed by
// the 80-byte plaintext metadata block and the payload. Keeping the
// builder local (rather than using erpc's encoder) means the corpus
// stays valid even if internals move, and the fuzzer can mutate every
// byte including the header.
func fuzzFrame(reqType uint8, reqID uint64, md seal.MsgMetadata, payload []byte) []byte {
	md.DataLen = uint32(len(payload))
	body := make([]byte, seal.MetadataSize+len(payload))
	md.EncodePlain(body)
	copy(body[seal.MetadataSize:], payload)
	wire := make([]byte, 12+len(body))
	wire[0] = 1 // erpc wire version
	wire[1] = reqType
	wire[2] = 1 << 2 // plaintext flag
	binary.LittleEndian.PutUint64(wire[4:], reqID)
	copy(wire[12:], body)
	return wire
}

// FuzzProtocolMessages feeds arbitrary frames into a full single-node
// 2PC stack — endpoint decode, replay cache, participant and coordinator
// handlers, transaction manager, storage engine. The endpoint runs in
// plaintext mode so fuzzer bytes actually reach the protocol handlers
// (on a secure endpoint everything unauthenticated dies at the MAC
// check, which FuzzFrameDecode in internal/erpc already covers). The
// property is purely "malformed input is an error, never a panic":
// handlers run on fibers, so any panic crashes the fuzz process and is
// reported with the crashing input.
func FuzzProtocolMessages(f *testing.F) {
	const addr = "fz-node"
	key, err := seal.NewRandomKey()
	if err != nil {
		f.Fatal(err)
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID:    1,
		Transport: &fuzzSink{addr: addr},
	})
	if err != nil {
		f.Fatal(err)
	}
	db, err := lsm.Open(lsm.Options{
		Dir: f.TempDir(), Level: seal.LevelEncrypted, Key: key,
		Counters: func(string) durlog.TrustedCounter { return durlog.NewImmediateCounter() },
	})
	if err != nil {
		f.Fatal(err)
	}
	// Short timeouts: garbage transactions opened by fuzzer-invented
	// (node, tx) ids must not pile up lock waits or pin memory for the
	// whole run.
	mgr := txn.NewManager(txn.Config{DB: db, LockTimeout: 25 * time.Millisecond})
	sched := fibers.New(4, nil)
	part := NewParticipant(ParticipantConfig{
		Manager: mgr, Endpoint: ep, Scheduler: sched,
		IdleTimeout: 250 * time.Millisecond,
	})
	clogCtr := durlog.NewImmediateCounter()
	clog, recovered, err := OpenClog(nil, f.TempDir(), seal.LevelEncrypted, key, nil, clogCtr, int64(clogCtr.StableValue()))
	if err != nil {
		f.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{
		NodeID: 1, Endpoint: ep, Participant: part, Clog: clog,
		Shard:   shardmap.NewHolder(shardmap.Uniform([]shardmap.Member{{ID: 1, Addr: addr}})),
		Timeout: 50 * time.Millisecond, Recovered: recovered,
	})
	_ = coord
	f.Cleanup(func() {
		part.Close()
		sched.Stop()
		clog.Close()
		db.Close()
		ep.Close()
	})

	// Seed corpus: one well-formed frame per protocol request type, so
	// the fuzzer starts from inputs that reach deep into each handler.
	// The keyed ops may open their transaction's part.
	md := seal.MsgMetadata{NodeID: 7, TxID: 3, OpID: 1, KeyLen: 3, ValueLen: 5, Seq: 1, Flags: flagOpensPart}
	f.Add(fuzzFrame(ReqTxnGet, 1, md, []byte("key")))
	put := md
	put.OpID = 2
	f.Add(fuzzFrame(ReqTxnPut, 2, put, []byte("keyvalue")))
	del := md
	del.OpID = 3
	f.Add(fuzzFrame(ReqTxnDelete, 3, del, []byte("key")))
	prep := md
	prep.OpID, prep.KeyLen, prep.ValueLen, prep.Flags = 4, 0, 0, 0
	f.Add(fuzzFrame(ReqPrepare, 4, prep, nil))
	f.Add(fuzzFrame(ReqCommit, 5, prep, nil))
	f.Add(fuzzFrame(ReqAbort, 6, prep, nil))
	var txid lsm.TxID
	binary.LittleEndian.PutUint64(txid[:8], 7)
	binary.LittleEndian.PutUint64(txid[8:], 3)
	f.Add(fuzzFrame(ReqTxStatus, 7, prep, txid[:]))
	// A resolve notice naming coordinator 7, and a short one.
	f.Add(fuzzFrame(ReqResolve, 16, prep, txid[:8]))
	f.Add(fuzzFrame(ReqResolve, 17, prep, txid[:3]))
	// Lying sizes: KeyLen/ValueLen pointing past the payload.
	lie := md
	lie.KeyLen, lie.ValueLen = 1000, 1000
	f.Add(fuzzFrame(ReqTxnPut, 8, lie, []byte("tiny")))
	// Slot-ingest chunks: a well-formed one, a batch claiming 2^32-1
	// records in none, one claiming two in room for one, junk.
	ing := prep
	ing.OpID = 12
	chunk := lsm.NewBatch()
	chunk.Put([]byte("k"), []byte("v"))
	chunk.Delete([]byte("gone"))
	f.Add(fuzzFrame(ReqSlotIngest, 12, ing, frameSlotChunk(3, true, chunk)))
	f.Add(fuzzFrame(ReqSlotIngest, 13, ing, []byte{1, 3, 0, 255, 255, 255, 255}))
	f.Add(fuzzFrame(ReqSlotIngest, 15, ing, []byte{0, 3, 0, 2, 0, 0, 0, 1, 1, 'k', 1, 'v'}))
	f.Add(fuzzFrame(ReqSlotIngest, 14, ing, []byte("x")))
	// Unknown request type, short status query, raw junk, truncations.
	f.Add(fuzzFrame(0xEE, 9, md, []byte("junk")))
	f.Add(fuzzFrame(ReqTxStatus, 10, prep, []byte("short")))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(fuzzFrame(ReqTxnGet, 11, md, []byte("key"))[:20])

	f.Fuzz(func(t *testing.T, data []byte) {
		ep.HandlePacket("fz-client", data)
	})
}
