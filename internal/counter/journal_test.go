package counter

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/simnet"
	"treaty/internal/vfs"
)

// The journal tests run replicas over in-memory filesystems and drive them
// through the real protocol: every value is raised by an echo round and a
// confirm round of a real client.

const (
	stateDir    = "/ctr"
	snapFile    = stateDir + "/counter-state-1.sealed"
	journalFile = stateDir + "/counter-state-1.journal"
)

// journalNet is a network on which the tests boot replicas and clients.
type journalNet struct {
	net *simnet.Network
	key seal.Key
	seq int
}

func newJournalNet(t *testing.T) *journalNet {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	n := &journalNet{net: simnet.New(simnet.LinkConfig{}, 7), key: key}
	t.Cleanup(n.net.Close)
	return n
}

// endpoint listens on a fresh address as node id and polls it until the
// test ends.
func (n *journalNet) endpoint(t *testing.T, id uint64) (*erpc.Endpoint, string) {
	t.Helper()
	n.seq++
	addr := fmt.Sprintf("ep-%d", n.seq)
	nep, err := n.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID:    id,
		Transport: erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
		Secure:    true, NetworkKey: n.key,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := erpc.StartPoller(ep)
	t.Cleanup(p.Stop)
	return ep, addr
}

// boot starts replica id over fsys; a refused boot returns the error.
func (n *journalNet) boot(t *testing.T, id uint64, encl *enclave.Enclave, fsys vfs.FS) (*Replica, string, error) {
	t.Helper()
	ep, addr := n.endpoint(t, id)
	r, err := NewReplicaFS(ep, encl, fsys, stateDir)
	if err == nil {
		t.Cleanup(func() { r.Close() })
	}
	return r, addr, err
}

func (n *journalNet) client(t *testing.T, replicas ...string) *Client {
	t.Helper()
	ep, _ := n.endpoint(t, 100+uint64(n.seq))
	c, err := NewClient(ClientConfig{Endpoint: ep, Replicas: replicas, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// solo boots replica 1 over fsys as a protection group of one, which every
// round of the returned client therefore reaches.
func (n *journalNet) solo(t *testing.T, encl *enclave.Enclave, fsys vfs.FS) (*Replica, *Client) {
	t.Helper()
	r, addr, err := n.boot(t, 1, encl, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return r, n.client(t, addr)
}

func launch(t *testing.T, platform string) *enclave.Enclave {
	t.Helper()
	p, err := enclave.NewPlatform(platform)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := p.Launch("counter-replica", enclave.RuntimeConfig{Mode: enclave.ModeNative})
	if err != nil {
		t.Fatal(err)
	}
	return encl
}

// image builds a filesystem whose state directory holds the given files
// (nil content: absent).
func image(t *testing.T, snapshot, journal []byte) *vfs.MemFS {
	t.Helper()
	m := vfs.NewMemFS()
	if err := m.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{snapFile: snapshot, journalFile: journal} {
		if data == nil {
			continue
		}
		f, err := m.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data)
		f.Close()
	}
	return m
}

func raise(t *testing.T, c *Client, name string, v uint64) {
	t.Helper()
	if err := c.Counter(name).WaitStable(v); err != nil {
		t.Fatalf("raising %s to %d: %v", name, v, err)
	}
}

// wantState asserts the replica reports exactly want: every value, and no
// other counter.
func wantState(t *testing.T, what string, r *Replica, want map[string]uint64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stable) != len(want) {
		t.Fatalf("%s: replica reports %d counters, want %d", what, len(r.stable), len(want))
	}
	for name, v := range want {
		if r.stable[name] != v {
			t.Fatalf("%s: %.20s = %d, want %d", what, name, r.stable[name], v)
		}
	}
}

func readFile(t *testing.T, fsys vfs.FS, name string) []byte {
	t.Helper()
	data, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// threeRecords journals x=1, y=7, x=2 and returns the journal's bytes and
// each record's end offset.
func threeRecords(t *testing.T, n *journalNet, encl *enclave.Enclave) (journal []byte, ends []int) {
	t.Helper()
	m := image(t, nil, nil)
	r, c := n.solo(t, encl, m)
	for _, rec := range []struct {
		name string
		v    uint64
	}{{"x", 1}, {"y", 7}, {"x", 2}} {
		raise(t, c, rec.name, rec.v)
		journal = readFile(t, m, journalFile)
		ends = append(ends, len(journal))
	}
	r.Close()
	return journal, ends
}

func TestReplicaJournalRecovery(t *testing.T) {
	n := newJournalNet(t)
	encl := launch(t, "replica-platform")
	// One long name fills the journal to its limit in a few hundred rounds.
	bulk := strings.Repeat("w", 4000)

	t.Run("restart across a compaction", func(t *testing.T) {
		m := image(t, nil, nil)
		r, c := n.solo(t, encl, m)
		raise(t, c, "a", 3)
		raise(t, c, "b", 5)
		r.Close()

		r, c = n.solo(t, encl, m)
		wantState(t, "journal only", r, map[string]uint64{"a": 3, "b": 5})
		reg := obs.NewRegistry()
		r.RegisterMetrics(reg)
		var v uint64
		for reg.Snapshot().Counter("counter.replica.compactions") == 0 {
			if v++; v > 2*journalLimit/uint64(len(bulk)) {
				t.Fatalf("no compaction after %d confirms of a %d-byte name", v, len(bulk))
			}
			raise(t, c, bulk, v)
		}
		if size := reg.Snapshot().Gauge("counter.replica.journal_bytes"); size != 0 {
			t.Fatalf("journal holds %d bytes right after a compaction", size)
		}
		// "a" is raised again past the snapshot, "b" lives in the snapshot only.
		raise(t, c, "a", 4)
		r.Close()

		r, _, err := n.boot(t, 1, encl, m)
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, "snapshot and journal", r, map[string]uint64{"a": 4, "b": 5, bulk: v})
	})

	journal, ends := threeRecords(t, n, encl)

	t.Run("every prefix of the journal", func(t *testing.T) {
		states := []map[string]uint64{{}, {"x": 1}, {"x": 1, "y": 7}, {"x": 2, "y": 7}}
		for cut := 0; cut <= len(journal); cut++ {
			whole := 0
			for whole < len(ends) && ends[whole] <= cut {
				whole++
			}
			m := image(t, nil, journal[:cut])
			r, _, err := n.boot(t, 1, encl, m)
			if err != nil {
				t.Fatalf("cut=%d: boot refused: %v", cut, err)
			}
			wantState(t, fmt.Sprintf("cut=%d", cut), r, states[whole])
			// The tear is gone from the file: the next record chains on the
			// last whole one.
			kept := 0
			if whole > 0 {
				kept = ends[whole-1]
			}
			if got := len(readFile(t, m, journalFile)); got != kept || r.journalSize() != int64(kept) {
				t.Fatalf("cut=%d: journal is %d bytes after boot (replica says %d), want %d", cut, got, r.journalSize(), kept)
			}
		}
	})

	t.Run("append after a torn tail", func(t *testing.T) {
		m := image(t, nil, journal[:ends[2]-5])
		r, c := n.solo(t, encl, m)
		raise(t, c, "z", 9)
		if got, want := r.journalSize(), int64(len(readFile(t, m, journalFile))); got != want || want <= int64(ends[1]) {
			t.Fatalf("replica says its journal is %d bytes, the file is %d (two records: %d)", got, want, ends[1])
		}
		r.Close()
		r, _, err := n.boot(t, 1, encl, m)
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, "reboot", r, map[string]uint64{"x": 1, "y": 7, "z": 9})
	})

	t.Run("damage is not a tear", func(t *testing.T) {
		// The record's length field sits after counter(8) and kind(1). A flip
		// there that makes the record overrun the file cannot be told from a
		// cut — and gains what cutting the file at that record gains.
		lenField := func(off int) bool { return off >= ends[0]+9 && off < ends[0]+13 }
		refused := 0
		for off := ends[0]; off < ends[1]; off++ {
			bad := append([]byte(nil), journal...)
			bad[off] ^= 0x01
			r, _, err := n.boot(t, 1, encl, image(t, nil, bad))
			switch {
			case errors.Is(err, enclave.ErrSealedTampered):
				refused++
			case err == nil && lenField(off):
				wantState(t, fmt.Sprintf("flip@%d", off), r, map[string]uint64{"x": 1})
			default:
				t.Fatalf("flip@%d: boot = %v, want ErrSealedTampered", off, err)
			}
		}
		if want := ends[1] - ends[0] - 4; refused < want {
			t.Fatalf("%d flips refused, want at least %d", refused, want)
		}
		// A journal sealed under another enclave's key.
		if _, _, err := n.boot(t, 1, launch(t, "another-platform"), image(t, nil, journal)); !errors.Is(err, enclave.ErrSealedTampered) {
			t.Fatalf("foreign journal: boot = %v, want ErrSealedTampered", err)
		}
	})

	t.Run("snapshot and journal merge by maximum", func(t *testing.T) {
		m := image(t, nil, journal)
		r, c := n.solo(t, encl, m)
		reg := obs.NewRegistry()
		r.RegisterMetrics(reg)
		for v := uint64(1); reg.Snapshot().Counter("counter.replica.compactions") == 0; v++ {
			raise(t, c, bulk, v)
		}
		raise(t, c, "y", 8)
		r.Close()
		want := map[string]uint64{"x": 2, "y": 7, bulk: r.StableValue(bulk)}
		snapshot := readFile(t, m, snapFile)
		for _, tc := range []struct {
			what    string
			journal []byte
		}{
			// A crash between the snapshot's rename and the journal's unlink.
			{"stale journal beside a newer snapshot", journal},
			// A crash between the unlink and the create; also all a directory
			// written before replicas kept a journal holds.
			{"snapshot with no journal", nil},
		} {
			r, _, err := n.boot(t, 1, encl, image(t, snapshot, tc.journal))
			if err != nil {
				t.Fatalf("%s: %v", tc.what, err)
			}
			wantState(t, tc.what, r, want)
		}
		want["y"] = 8
		r, _, err := n.boot(t, 1, encl, m)
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, "snapshot and the journal after it", r, want)
	})

	t.Run("a failed append fail-stops the replica", func(t *testing.T) {
		ff := vfs.NewFaultFS(image(t, nil, nil))
		faulty, addr0, err := n.boot(t, 1, encl, ff)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		faulty.RegisterMetrics(reg)
		addrs := []string{addr0}
		healthy := make([]*Replica, 2)
		for i := range healthy {
			var addr string
			if healthy[i], addr, err = n.boot(t, uint64(i+2), launch(t, fmt.Sprint("healthy-", i)), image(t, nil, nil)); err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, addr)
		}
		c := n.client(t, addrs...)
		ff.FailNextWrites(1)
		const rounds = 6
		for v := uint64(1); v <= rounds; v++ {
			raise(t, c, "wal", v) // the other two are a quorum
		}
		for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Counter("counter.replica.confirms") < rounds; {
			if time.Now().After(deadline) {
				t.Fatal("the faulty replica did not see every confirm")
			}
			time.Sleep(time.Millisecond)
		}
		if ff.WritesFailed() != 1 {
			t.Fatalf("vacuous: %d writes failed, want 1", ff.WritesFailed())
		}
		if got := faulty.StableValue("wal"); got != 0 {
			t.Fatalf("a replica whose append failed raised its value to %d", got)
		}
		if got := reg.Snapshot().Counter("counter.replica.journal_appends"); got != 0 {
			t.Fatalf("a poisoned journal took %d appends", got)
		}
		if _, err := faulty.confirm("wal", rounds); !errors.Is(err, durlog.ErrLogPoisoned) {
			t.Fatalf("confirm after a failed append = %v, want ErrLogPoisoned", err)
		}
		for _, r := range healthy {
			if got := r.StableValue("wal"); got != rounds {
				t.Fatalf("healthy replica at %d, want %d", got, rounds)
			}
		}
	})
}

// countFS counts what a replica's persistence costs: writes to the journal
// and the bytes they carry, writes to any other file, exclusive creates,
// renames.
type countFS struct {
	vfs.FS
	journalWrites, journalBytes, otherWrites, creates, renames atomic.Int64
}

type countFile struct {
	vfs.File
	writes, bytes *atomic.Int64
}

func (f countFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	if f.bytes != nil {
		f.bytes.Add(int64(len(p)))
	}
	return f.File.Write(p)
}

func (c *countFS) wrap(f vfs.File, name string, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	if name == journalFile {
		return countFile{f, &c.journalWrites, &c.journalBytes}, nil
	}
	return countFile{f, &c.otherWrites, nil}, nil
}

func (c *countFS) Create(name string) (vfs.File, error) {
	c.creates.Add(1)
	f, err := c.FS.Create(name)
	return c.wrap(f, name, err)
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return c.wrap(f, name, err)
}

func (c *countFS) Rename(oldname, newname string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldname, newname)
}

// TestConfirmCostsOneJournalWrite guards the cost of a confirm by count:
// one file write when it raises a value, nothing when it does not, and a
// whole-state rewrite (one snapshot write and rename, one fresh journal)
// only per journalLimit bytes journaled. A replica that rewrites and
// renames its state file on every confirm costs 1,000 creates and 1,000
// renames here.
func TestConfirmCostsOneJournalWrite(t *testing.T) {
	n := newJournalNet(t)
	cfs := &countFS{FS: image(t, nil, nil)}
	r, c := n.solo(t, launch(t, "replica-platform"), cfs)
	names := []string{"node0/wal-000001.log", "node0/CLOG-000001", "node1/wal-000001.log", "node1/MANIFEST-000001"}
	bootCreates := cfs.creates.Load() // the journal

	const confirms = 1000
	for i := 0; i < confirms; i++ {
		raise(t, c, names[i%len(names)], uint64(i/len(names)+1))
	}
	if got := cfs.journalWrites.Load(); got != confirms {
		t.Fatalf("%d value-raising confirms cost %d journal writes, want one each", confirms, got)
	}
	rewrites := cfs.renames.Load()
	if limit := cfs.journalBytes.Load() / journalLimit; rewrites > limit {
		t.Fatalf("%d state rewrites for %d journaled bytes, want at most %d", rewrites, cfs.journalBytes.Load(), limit)
	}
	if creates, others := cfs.creates.Load()-bootCreates, cfs.otherWrites.Load(); creates != 2*rewrites || others != rewrites {
		t.Fatalf("%d creates and %d writes outside the journal for %d state rewrites, want %d and %d",
			creates, others, rewrites, 2*rewrites, rewrites)
	}

	for i := 0; i < confirms; i++ {
		name := names[i%len(names)]
		acks, err := c.broadcast(reqConfirm, name, confirms/uint64(len(names)))
		if err != nil || acks[0] != r.StableValue(name) {
			t.Fatalf("duplicate confirm: acks=%v err=%v", acks, err)
		}
	}
	if got := cfs.journalWrites.Load(); got != confirms || cfs.otherWrites.Load() != rewrites {
		t.Fatalf("%d duplicate confirms cost %d journal writes, want none", confirms, got-confirms)
	}
}
