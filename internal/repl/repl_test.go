package repl

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/simnet"
	"treaty/internal/vfs"
)

func testKey(t *testing.T) seal.Key {
	t.Helper()
	k, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func group(key seal.Key, prev [seal.HashSize]byte, seq uint64, entries ...durlog.Entry) *ShipRequest {
	r := &ShipRequest{Stream: StreamWAL, Primary: 7, Entries: entries, Seq: seq}
	r.Digest = ChainDigest(prev, entries)
	r.Sign(key)
	return r
}

func TestShipRequestRoundTrip(t *testing.T) {
	key := testKey(t)
	r := group(key, [seal.HashSize]byte{}, 1,
		durlog.Entry{Kind: 1, Counter: 10, Payload: []byte("hello")},
		durlog.Entry{Kind: 3, Counter: 11, Payload: nil},
		durlog.Entry{Kind: 2, Counter: 12, Payload: bytes.Repeat([]byte{0xAB}, 300)},
	)
	got, err := DecodeShipRequest(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != r.Stream || got.Primary != r.Primary || got.Seq != r.Seq ||
		got.Digest != r.Digest || got.Sig != r.Sig || len(got.Entries) != 3 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	for i := range r.Entries {
		if got.Entries[i].Kind != r.Entries[i].Kind ||
			got.Entries[i].Counter != r.Entries[i].Counter ||
			!bytes.Equal(got.Entries[i].Payload, r.Entries[i].Payload) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if !got.VerifySig(key) {
		t.Fatal("signature did not survive the round trip")
	}
}

func TestDecodeShipRequestRejectsJunk(t *testing.T) {
	key := testKey(t)
	good := group(key, [seal.HashSize]byte{}, 1, durlog.Entry{Kind: 1, Counter: 5, Payload: []byte("x")}).Encode()
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:8],
		"bad version": append([]byte{99}, good[1:]...),
		"bad stream":  append([]byte{good[0], 77}, good[2:]...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeShipRequest(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func newTestBackup(t *testing.T, fs vfs.FS, dir string, key seal.Key) (*Backup, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	b, err := NewBackup(BackupConfig{Dir: dir, FS: fs, Key: key, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return b, reg
}

// rawKey bypasses KeyFor so tests can hand groups the exact proof key
// the backup derived.
func signRaw(b *Backup, r *ShipRequest) { r.Sign(b.key) }

func TestBackupMirrorsAndSurvivesReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	key := testKey(t)
	b, _ := newTestBackup(t, fs, "node", key)

	var prev [seal.HashSize]byte
	var reqs []*ShipRequest
	for seq := uint64(1); seq <= 3; seq++ {
		r := &ShipRequest{Stream: StreamWAL, Primary: 7, Seq: seq, Entries: []durlog.Entry{
			{Kind: 1, Counter: seq * 10, Payload: []byte{byte(seq)}},
		}}
		r.Digest = ChainDigest(prev, r.Entries)
		signRaw(b, r)
		if _, errMsg := b.ingest(r.Encode()); errMsg != "" {
			t.Fatalf("group %d rejected: %s", seq, errMsg)
		}
		prev = r.Digest
		reqs = append(reqs, r)
	}
	seq, digest, ok := b.StreamState(7, StreamWAL)
	if !ok || seq != 3 || digest != prev {
		t.Fatalf("stream state = (%d, ok=%v), want (3, true)", seq, ok)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened backup replays its mirror files to the same state.
	b2, _ := newTestBackup(t, fs, "node", key)
	seq, digest, ok = b2.StreamState(7, StreamWAL)
	if !ok || seq != 3 || digest != prev {
		t.Fatalf("reopened stream state = (%d, ok=%v), want (3, true)", seq, ok)
	}
	entries := b2.Entries(7, StreamWAL)
	if len(entries) != 3 || entries[2].Counter != 30 {
		t.Fatalf("reopened entries = %+v", entries)
	}
	for _, r := range reqs {
		if d, ok := b2.DigestAt(7, StreamWAL, r.Seq); !ok || d != r.Digest {
			t.Fatalf("boundary digest at %d lost across reopen", r.Seq)
		}
	}
}

func TestBackupTruncatesTornTail(t *testing.T) {
	fs := vfs.NewMemFS()
	key := testKey(t)
	b, _ := newTestBackup(t, fs, "node", key)
	r := &ShipRequest{Stream: StreamClog, Primary: 3, Seq: 1, Entries: []durlog.Entry{
		{Kind: 1, Counter: 1, Payload: []byte("entry")},
	}}
	r.Digest = ChainDigest([seal.HashSize]byte{}, r.Entries)
	signRaw(b, r)
	if _, errMsg := b.ingest(r.Encode()); errMsg != "" {
		t.Fatal(errMsg)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// A power cut mid-append leaves a torn record at the tail.
	path := filepath.Join("node", "repl", "p3-s2.mirror")
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, _ := newTestBackup(t, fs, "node", key)
	seq, _, ok := b2.StreamState(3, StreamClog)
	if !ok || seq != 1 {
		t.Fatalf("after torn tail: seq = %d, want 1", seq)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != seal.EncodedLen(seal.LevelNone, len(r.Encode())) {
		t.Fatalf("torn tail not truncated: %d bytes", len(data))
	}
}

func TestBackupRejectsBadGroups(t *testing.T) {
	fs := vfs.NewMemFS()
	key := testKey(t)
	b, reg := newTestBackup(t, fs, "node", key)
	mk := func(seq uint64, prev [seal.HashSize]byte, payload string) *ShipRequest {
		r := &ShipRequest{Stream: StreamWAL, Primary: 1, Seq: seq, Entries: []durlog.Entry{
			{Kind: 1, Counter: seq, Payload: []byte(payload)},
		}}
		r.Digest = ChainDigest(prev, r.Entries)
		signRaw(b, r)
		return r
	}
	first := mk(1, [seal.HashSize]byte{}, "a")
	if _, errMsg := b.ingest(first.Encode()); errMsg != "" {
		t.Fatal(errMsg)
	}

	// Retried duplicate of mirrored history: idempotent ack.
	if _, errMsg := b.ingest(first.Encode()); errMsg != "" {
		t.Fatalf("idempotent duplicate rejected: %s", errMsg)
	}
	// Duplicate seq with different content: a fork, rejected.
	if _, errMsg := b.ingest(mk(1, [seal.HashSize]byte{}, "FORK").Encode()); !strings.Contains(errMsg, "divergent duplicate") {
		t.Fatalf("divergent duplicate: got %q", errMsg)
	}
	// A gap (seq 3 after 1) would hide a lost group.
	if _, errMsg := b.ingest(mk(3, first.Digest, "c").Encode()); !strings.Contains(errMsg, "group gap") {
		t.Fatalf("gap: got %q", errMsg)
	}
	// A next group chained from the wrong prefix digest.
	if _, errMsg := b.ingest(mk(2, [seal.HashSize]byte{0xFF}, "b").Encode()); !strings.Contains(errMsg, "digest mismatch") {
		t.Fatalf("bad chain: got %q", errMsg)
	}
	// An unsigned (wrong-key) group.
	forged := mk(2, first.Digest, "b")
	forged.Sig[0] ^= 1
	if _, errMsg := b.ingest(forged.Encode()); !strings.Contains(errMsg, "proof signature") {
		t.Fatalf("bad sig: got %q", errMsg)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["repl.recv_rejected"]; got != 4 {
		t.Fatalf("recv_rejected = %d, want 4", got)
	}
	if got := snap.Counters["repl.recv_groups"]; got != 6 {
		t.Fatalf("recv_groups = %d, want 6", got)
	}
	if got := snap.Counters["repl.recv_acked"]; got != 2 {
		t.Fatalf("recv_acked = %d, want 2", got)
	}
}

// TestBackupFailedWriteFailStopsStream pins mirrored-before-acked across
// a failed mirror write: a group whose append came up short poisons the
// stream's mirror log, so its retry is refused instead of acked behind
// the torn bytes — which reopening would cut away with it — and a
// shipper facing that stream degrades it rather than stabilize past it.
func TestBackupFailedWriteFailStopsStream(t *testing.T) {
	mem := vfs.NewMemFS()
	faults := vfs.NewFaultFS(mem)
	key := testKey(t)
	b, reg := newTestBackup(t, faults, "node", key)
	chain := NewChain(StreamWAL, 7, key)
	ship := func(req *ShipRequest) string {
		_, errMsg := b.ingest(req.Encode())
		if errMsg == "" {
			chain.Acked(req)
		}
		return errMsg
	}
	entry := func(c uint64) []durlog.Entry {
		return []durlog.Entry{{Kind: 1, Counter: c, Payload: bytes.Repeat([]byte{byte(c)}, 64)}}
	}
	if errMsg := ship(chain.Next(entry(1))); errMsg != "" {
		t.Fatal(errMsg)
	}
	g2 := chain.Next(entry(2))
	faults.SetShortWriteProb(1)
	if errMsg := ship(g2); errMsg == "" {
		t.Fatal("group 2 acked through a short mirror write")
	}
	faults.SetShortWriteProb(0)
	if errMsg := ship(g2); !strings.Contains(errMsg, "poisoned") {
		t.Fatalf("retry of group 2 after a failed mirror write: got %q, want a poisoned-stream refusal", errMsg)
	}
	if got := reg.Snapshot().Counters["repl.recv_rejected"]; got != 2 {
		t.Fatalf("recv_rejected = %d, want 2", got)
	}
	b.Close()

	b2, _ := newTestBackup(t, mem, "node", key)
	if seq, _, _ := b2.StreamState(7, StreamWAL); seq != chain.Seq() {
		t.Fatalf("reopened mirror at seq %d, shipper acked %d", seq, chain.Seq())
	}
	// The reopened stream takes group 2 again.
	if _, errMsg := b2.ingest(g2.Encode()); errMsg != "" {
		t.Fatalf("group 2 after reopen: %s", errMsg)
	}

	// Through the shipper: the poisoned stream's refusals degrade it.
	rig := newShipperRig(t, nil)
	rig.shipper.Ship(entry(1))
	rig.faults.SetShortWriteProb(1)
	rig.shipper.Ship(entry(2))
	if rig.shipper.Seq() != 1 || !rig.witness.degraded[StreamWAL] {
		t.Fatalf("shipper seq %d degraded %v, want 1 and a degraded stream", rig.shipper.Seq(), rig.witness.degraded[StreamWAL])
	}
}

// TestBackupRefusesTamperedMirror: a whole, CRC-valid mirror record whose
// signature, sequence or chain digest fails is tampering, not a tear —
// reopening refuses the mirror and names the file.
func TestBackupRefusesTamperedMirror(t *testing.T) {
	key := testKey(t)
	chain := NewChain(StreamClog, 3, key)
	g1 := chain.Next([]durlog.Entry{{Kind: 1, Counter: 1, Payload: []byte("one")}})
	chain.Acked(g1)
	g2 := chain.Next([]durlog.Entry{{Kind: 2, Counter: 2, Payload: []byte("two")}})
	badSig, badChain, badSeq := *g2, *g2, *g2
	badSig.Sig[0] ^= 1
	badChain.Entries = []durlog.Entry{{Kind: 2, Counter: 2, Payload: []byte("TWO")}}
	badSeq.Seq = 3
	badChain.Sign(KeyFor(key))
	badSeq.Sign(KeyFor(key))
	for name, bad := range map[string]*ShipRequest{"signature": &badSig, "chain digest": &badChain, "sequence": &badSeq} {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			path := filepath.Join("node", "repl", "p3-s2.mirror")
			if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			log, _, err := durlog.Open(mirrorConfig(fs, path), -1)
			if err != nil {
				t.Fatal(err)
			}
			recs := []durlog.Entry{{Kind: mirrorKindGroup, Payload: g1.Encode()}, {Kind: mirrorKindGroup, Payload: bad.Encode()}}
			if err := log.Commit(recs, true); err != nil {
				t.Fatal(err)
			}
			log.Close()
			_, err = NewBackup(BackupConfig{Dir: "node", FS: fs, Key: key})
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "tampered") {
				t.Fatalf("reopen over a tampered record: err = %v, want a tampering error naming %s", err, path)
			}
		})
	}
}

// witnessRec is a test Witness recording every report.
type witnessRec struct {
	seqs     map[uint8]uint64
	digests  map[uint8][seal.HashSize]byte
	degraded map[uint8]bool
}

func newWitnessRec() *witnessRec {
	return &witnessRec{
		seqs:     make(map[uint8]uint64),
		digests:  make(map[uint8][seal.HashSize]byte),
		degraded: make(map[uint8]bool),
	}
}

func (w *witnessRec) ReplWitness(primary uint64, stream uint8, seq uint64, digest [seal.HashSize]byte) {
	w.seqs[stream] = seq
	w.digests[stream] = digest
}

func (w *witnessRec) ReplDegrade(primary uint64, stream uint8) { w.degraded[stream] = true }

// shipperRig is a live shipper→backup pair over a simulated network.
type shipperRig struct {
	shipper *Shipper
	backup  *Backup
	witness *witnessRec
	reg     *obs.Registry
	faults  *vfs.FaultFS // under the backup's mirrors
}

func newShipperRig(t *testing.T, backupOf func() (uint64, bool)) *shipperRig {
	t.Helper()
	n := simnet.New(simnet.LinkConfig{}, 1)
	t.Cleanup(n.Close)
	key := testKey(t)
	mkEP := func(addr string, id uint64) *erpc.Endpoint {
		nep, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := erpc.NewEndpoint(erpc.Config{
			NodeID:     id,
			Transport:  erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
			NetworkKey: key,
			Secure:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		p := erpc.StartPoller(ep)
		t.Cleanup(p.Stop)
		return ep
	}
	priEP := mkEP("primary", 1)
	bakEP := mkEP("backup", 2)

	reg := obs.NewRegistry()
	faults := vfs.NewFaultFS(vfs.NewMemFS())
	backup, err := NewBackup(BackupConfig{Dir: "bak", FS: faults, Key: key, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backup.Close() })
	bakEP.Register(0x18, backup.Handler())

	if backupOf == nil {
		backupOf = func() (uint64, bool) { return 2, true }
	}
	w := newWitnessRec()
	shipper := NewShipper(ShipperConfig{
		Stream:   StreamWAL,
		Primary:  1,
		Endpoint: priEP,
		BackupOf: backupOf,
		AddrOf: func(id uint64) (string, bool) {
			if id == 2 {
				return "backup", true
			}
			return "", false
		},
		Witness: w,
		Key:     key,
		Timeout: 100 * time.Millisecond,
		Metrics: reg,
	})
	return &shipperRig{shipper: shipper, backup: backup, witness: w, reg: reg, faults: faults}
}

func TestShipperReplicatesAndWitnesses(t *testing.T) {
	rig := newShipperRig(t, nil)
	for i := 1; i <= 3; i++ {
		rig.shipper.Ship([]durlog.Entry{
			{Kind: 1, Counter: uint64(i * 10), Payload: []byte{byte(i)}},
			{Kind: 1, Counter: uint64(i*10 + 1), Payload: []byte{byte(i), byte(i)}},
		})
	}
	if got := rig.shipper.Seq(); got != 3 {
		t.Fatalf("shipper seq = %d, want 3", got)
	}
	seq, digest, ok := rig.backup.StreamState(1, StreamWAL)
	if !ok || seq != 3 {
		t.Fatalf("backup state = (%d, %v)", seq, ok)
	}
	if rig.witness.seqs[StreamWAL] != 3 || rig.witness.digests[StreamWAL] != digest {
		t.Fatalf("witness = %d (digest match %v), want 3/true",
			rig.witness.seqs[StreamWAL], rig.witness.digests[StreamWAL] == digest)
	}
	if rig.witness.degraded[StreamWAL] {
		t.Fatal("stream degraded on the happy path")
	}
	entries := rig.backup.Entries(1, StreamWAL)
	if len(entries) != 6 {
		t.Fatalf("mirrored %d entries, want 6", len(entries))
	}
	snap := rig.reg.Snapshot()
	if snap.Counters["repl.ship_groups"] != 3 || snap.Counters["repl.ship_acked"] != 3 {
		t.Fatalf("ship counters: %+v", snap.Counters)
	}
}

func TestShipperDegradesWhenBackupUnreachable(t *testing.T) {
	rig := newShipperRig(t, nil)
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 1, Payload: []byte("a")}})
	if rig.shipper.Seq() != 1 {
		t.Fatal("first group did not replicate")
	}
	// The backup dies: the mirror can no longer cover groups the
	// primary is about to stabilize, so the stream must degrade (and
	// stay degraded) rather than silently fall behind.
	rig.backup.Close()
	rig.shipper.cfg.AddrOf = func(uint64) (string, bool) { return "", false }
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 2, Payload: []byte("b")}})
	if !rig.witness.degraded[StreamWAL] {
		t.Fatal("stream did not degrade after losing its backup")
	}
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 3, Payload: []byte("c")}})
	snap := rig.reg.Snapshot()
	if snap.Counters["repl.ship_failed"] != 1 {
		t.Fatalf("ship_failed = %d, want 1", snap.Counters["repl.ship_failed"])
	}
	if snap.Counters["repl.ship_skipped"] != 1 {
		t.Fatalf("ship_skipped = %d, want 1 (degraded groups are skipped)", snap.Counters["repl.ship_skipped"])
	}
	if got := snap.Counters["repl.ship_groups"]; got != 3 {
		t.Fatalf("ship_groups = %d, want 3", got)
	}
}

func TestShipperStoppedIsSilent(t *testing.T) {
	rig := newShipperRig(t, nil)
	rig.shipper.Stop()
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 1, Payload: []byte("a")}})
	if rig.witness.degraded[StreamWAL] {
		t.Fatal("teardown-time ship degraded the stream")
	}
	if len(rig.witness.seqs) != 0 {
		t.Fatal("teardown-time ship witnessed")
	}
	if got := rig.reg.Snapshot().Counters["repl.ship_groups"]; got != 0 {
		t.Fatalf("stopped ship counted: %d", got)
	}
}

func TestShipperUnassignedSkipsUntilBound(t *testing.T) {
	assigned := false
	rig := newShipperRig(t, nil)
	rig.shipper.cfg.BackupOf = func() (uint64, bool) { return 2, assigned }
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 1, Payload: []byte("a")}})
	if rig.witness.degraded[StreamWAL] {
		t.Fatal("unbound stream degraded on missing assignment")
	}
	snap := rig.reg.Snapshot()
	if snap.Counters["repl.ship_unassigned"] != 1 || snap.Counters["repl.ship_skipped"] != 1 {
		t.Fatalf("unassigned counters: %+v", snap.Counters)
	}
	// Once bound, losing the assignment is a degrade: stabilized groups
	// would outrun the mirror.
	assigned = true
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 2, Payload: []byte("b")}})
	if rig.shipper.Seq() != 1 {
		t.Fatal("bound ship did not replicate")
	}
	assigned = false
	rig.shipper.Ship([]durlog.Entry{{Kind: 1, Counter: 3, Payload: []byte("c")}})
	if !rig.witness.degraded[StreamWAL] {
		t.Fatal("bound stream did not degrade on losing its assignment")
	}
}

func FuzzReplStreamDecode(f *testing.F) {
	var key seal.Key
	copy(key[:], bytes.Repeat([]byte{7}, len(key)))
	seed := group(key, [seal.HashSize]byte{}, 1,
		durlog.Entry{Kind: 1, Counter: 42, Payload: []byte("seed-payload")},
		durlog.Entry{Kind: 2, Counter: 43, Payload: []byte{}},
	)
	f.Add(seed.Encode())
	f.Add([]byte{})
	f.Add([]byte{wireVersion, StreamWAL})
	big := group(key, [seal.HashSize]byte{}, 9, durlog.Entry{Kind: 3, Counter: 1, Payload: bytes.Repeat([]byte{1}, 4096)})
	f.Add(big.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeShipRequest(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to the identical bytes: the
		// mirror file stores raw requests and replays them through this
		// decoder, so decode/encode must be a faithful round trip.
		if !bytes.Equal(r.Encode(), data) {
			t.Fatalf("decode/encode not idempotent for %x", data)
		}
	})
}
