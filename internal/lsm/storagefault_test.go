package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treaty/internal/durlog"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

func faultTestKey() seal.Key {
	var k seal.Key
	for i := range k {
		k[i] = byte(i*3 + 1)
	}
	return k
}

var allLevels = []struct {
	name  string
	level seal.SecurityLevel
}{
	{"none", seal.LevelNone},
	{"integrity", seal.LevelIntegrity},
	{"encrypted", seal.LevelEncrypted},
}

// TestWALSyncFailureFailStop is the fail-stop regression: after one
// injected fsync failure the engine must refuse every later commit with
// a sticky ErrLogPoisoned (retrying would splice the log across the
// dropped tail), and a reboot must recover exactly the pre-failure
// state.
func TestWALSyncFailureFailStop(t *testing.T) {
	mem := vfs.NewMemFS()
	ff := vfs.NewFaultFS(mem)
	db, err := Open(Options{Dir: "/db", FS: ff})
	if err != nil {
		t.Fatal(err)
	}

	good := NewBatch()
	good.Put([]byte("committed"), []byte("v1"))
	if _, _, err := db.Apply(good); err != nil {
		t.Fatal(err)
	}

	ff.FailNextSyncs(1)
	bad := NewBatch()
	bad.Put([]byte("lost"), []byte("v2"))
	if _, _, err := db.Apply(bad); err == nil {
		t.Fatal("commit acknowledged over a failed fsync")
	}

	// Faults are gone, but the handle is poisoned: no later commit may be
	// acknowledged, even though the device recovered.
	after := NewBatch()
	after.Put([]byte("after"), []byte("v3"))
	if _, _, err := db.Apply(after); !errors.Is(err, durlog.ErrLogPoisoned) {
		t.Fatalf("post-failure commit error = %v, want durlog.ErrLogPoisoned", err)
	}
	_ = db.Close()

	// Reboot: the pre-failure commit is there, nothing after it is.
	db2, err := Open(Options{Dir: "/db", FS: ff})
	if err != nil {
		t.Fatalf("reboot after poisoned wal: %v", err)
	}
	defer db2.Close()
	if _, _, found, err := db2.Get([]byte("committed"), db2.LatestSeq()); err != nil || !found {
		t.Fatalf("pre-failure commit lost: found=%v err=%v", found, err)
	}
	for _, k := range []string{"lost", "after"} {
		if _, _, found, _ := db2.Get([]byte(k), db2.LatestSeq()); found {
			t.Fatalf("unacknowledged key %q resurrected", k)
		}
	}
	b := NewBatch()
	b.Put([]byte("fresh"), []byte("v4"))
	if _, _, err := db2.Apply(b); err != nil {
		t.Fatalf("rebooted store rejects writes: %v", err)
	}
}

// TestFlushFailureFailStop: a memtable flush whose SSTable write fails
// latches the background error, so Flush keeps reporting it, and no
// acknowledged write is lost: its WAL stays live until a flush succeeds,
// so a reboot on the healthy disk replays it.
func TestFlushFailureFailStop(t *testing.T) {
	for _, lv := range allLevels {
		t.Run(lv.name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			ff := vfs.NewFaultFS(mem)
			db, err := Open(Options{Dir: "/db", FS: ff, Level: lv.level, Key: faultTestKey()})
			if err != nil {
				t.Fatal(err)
			}
			var acked []string
			put := func(k string) error {
				b := NewBatch()
				b.Put([]byte(k), []byte("v-"+k))
				_, _, err := db.Apply(b)
				if err == nil {
					acked = append(acked, k)
				}
				return err
			}
			for i := 0; i < 8; i++ {
				if err := put(fmt.Sprintf("before-%d", i)); err != nil {
					t.Fatal(err)
				}
			}

			ff.SetMatch(func(name string) bool { return strings.HasSuffix(name, ".sst") })
			ff.FailNextWrites(1)
			if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Flush over a failed SSTable write = %v, want vfs.ErrInjected", err)
			}
			if ff.WritesFailed() != 1 {
				t.Fatalf("%d writes failed, want 1", ff.WritesFailed())
			}
			// The disk is healthy again, but the error is latched. A write
			// may still be acknowledged into the live WAL; if it is, it
			// must survive too.
			ff.Reset()
			_ = put("after")
			if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("second Flush = %v, want the latched vfs.ErrInjected", err)
			}
			if err := db.Close(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Close = %v, want the latched vfs.ErrInjected", err)
			}

			db2, err := Open(Options{Dir: "/db", FS: mem, Level: lv.level, Key: faultTestKey()})
			if err != nil {
				t.Fatalf("reboot after failed flush: %v", err)
			}
			defer db2.Close()
			for _, k := range acked {
				v, _, found, err := db2.Get([]byte(k), db2.LatestSeq())
				if err != nil || !found || string(v) != "v-"+k {
					t.Fatalf("acknowledged %q after reboot: %q found=%v err=%v", k, v, found, err)
				}
			}
		})
	}
}

// TestCounterPersistFailureFailStop: a trusted counter that can no
// longer persist must fail-stop the commit path — acknowledging a commit
// whose counter binding is only in memory re-opens the lost-ack hole on
// the next reboot.
func TestCounterPersistFailureFailStop(t *testing.T) {
	mem := vfs.NewMemFS()
	ff := vfs.NewFaultFS(mem)
	if err := ff.MkdirAll("/ctr", 0o755); err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]durlog.TrustedCounter)
	factory := func(name string) durlog.TrustedCounter {
		if c, ok := counters[name]; ok {
			return c
		}
		c, err := durlog.NewFileCounter(ff, filepath.Join("/ctr", name))
		if err != nil {
			t.Fatalf("counter %s: %v", name, err)
		}
		counters[name] = c
		return c
	}
	db, err := Open(Options{
		Dir: "/db", FS: ff,
		Level: seal.LevelIntegrity, Key: faultTestKey(),
		Counters: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ok := NewBatch()
	ok.Put([]byte("k0"), []byte("v0"))
	if _, _, err := db.Apply(ok); err != nil {
		t.Fatal(err)
	}

	// Only counter-file syncs fail: the WAL itself stays healthy, so the
	// refusal below is attributable to the counter alone.
	ff.SetMatch(func(name string) bool { return strings.HasPrefix(name, "/ctr/") })
	ff.FailNextSyncs(1)
	bad := NewBatch()
	bad.Put([]byte("k1"), []byte("v1"))
	if _, _, err := db.Apply(bad); err == nil {
		t.Fatal("commit acknowledged with an unpersistable trusted counter")
	}
	// Sticky: the counter is permanently failed, commits stay refused.
	again := NewBatch()
	again.Put([]byte("k2"), []byte("v2"))
	if _, _, err := db.Apply(again); err == nil {
		t.Fatal("commit acknowledged after counter fail-stop")
	}
}

// TestNativeModeBlockCorruptionDetected: at LevelNone there are no hash
// chains, but per-block CRCs must still catch media corruption — the
// pre-fix check compared a fresh checksum against zero and could never
// fire. The damaged table must be quarantined with a sticky error and
// counted in the corruption metric.
func TestNativeModeBlockCorruptionDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open(Options{Dir: "/db", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	for i := 0; i < 32; i++ {
		b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(strings.Repeat("v", 64)))
	}
	if _, _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the first data block of the table.
	var sstPath string
	ents, err := fs.ReadDir("/db")
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), "sst-") {
			sstPath = "/db/" + de.Name()
		}
	}
	if sstPath == "" {
		t.Fatal("flush produced no sstable")
	}
	raw, err := fs.ReadFile(sstPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 0x40
	f, err := fs.OpenFile(sstPath, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db2, err := Open(Options{Dir: "/db", FS: fs, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	_, _, _, gerr := db2.Get([]byte("key-000"), db2.LatestSeq())
	if !errors.Is(gerr, ErrSSTCorrupt) {
		t.Fatalf("native-mode read of corrupted block: err=%v, want ErrSSTCorrupt", gerr)
	}
	// Quarantined: the second read fails the same way without touching
	// the damaged file again.
	if _, _, _, gerr := db2.Get([]byte("key-000"), db2.LatestSeq()); !errors.Is(gerr, ErrSSTCorrupt) {
		t.Fatalf("quarantine not sticky: %v", gerr)
	}
	if got := reg.Snapshot().Counter("lsm.corruption.detected"); got == 0 {
		t.Fatal("corruption metric not incremented")
	}
}

// TestWarmCacheQuarantinePurge: bit rot detected under a WARM block
// cache must quarantine the table AND purge its cached blocks — a
// stale cached block must never serve reads for a quarantined table,
// not even through a reader handle grabbed before the quarantine.
func TestWarmCacheQuarantinePurge(t *testing.T) {
	for _, lv := range allLevels {
		lv := lv
		t.Run(lv.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			reg := obs.NewRegistry()
			db, err := Open(Options{
				Dir: "/db", FS: fs, Metrics: reg,
				Level: lv.level, Key: faultTestKey(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Enough data for several 4 KiB blocks in one table.
			b := NewBatch()
			for i := 0; i < 64; i++ {
				b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(strings.Repeat("v", 128)))
			}
			if _, _, err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}

			keyA, keyB := []byte("key-000"), []byte("key-063")
			// Warm the cache with keyA's block (first block of the table).
			if _, _, found, err := db.Get(keyA, db.LatestSeq()); err != nil || !found {
				t.Fatalf("warming get: found=%v err=%v", found, err)
			}
			if _, _, found, err := db.Get(keyA, db.LatestSeq()); err != nil || !found {
				t.Fatalf("warm get: found=%v err=%v", found, err)
			}
			if reg.Snapshot().Counter("lsm.cache.hits") == 0 {
				t.Fatal("cache not warm")
			}

			// Grab the live reader handle (models a concurrent reader that
			// opened the table before the corruption was noticed), then rot
			// one byte in the middle of EVERY data block on disk.
			db.mu.Lock()
			if len(db.readers) != 1 {
				db.mu.Unlock()
				t.Fatalf("expected 1 reader, have %d", len(db.readers))
			}
			var tableNum uint64
			var r *sstReader
			for num, rd := range db.readers {
				tableNum, r = num, rd
			}
			db.mu.Unlock()
			if len(r.handles) < 2 {
				t.Fatalf("need a multi-block table, got %d blocks", len(r.handles))
			}
			path := sstFileName("/db", tableNum)
			raw, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range r.handles {
				raw[h.offset+h.length/2] ^= 0x40
			}
			f, err := fs.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(raw); err != nil {
				t.Fatal(err)
			}

			// A cold read (keyB's block is not cached) detects the rot and
			// quarantines the table.
			if _, _, _, gerr := db.Get(keyB, db.LatestSeq()); !errors.Is(gerr, ErrSSTCorrupt) {
				t.Fatalf("cold read of rotted block: err=%v, want ErrSSTCorrupt", gerr)
			}
			// keyA's block WAS warm: the quarantine must have purged it, so
			// the DB read fails instead of serving the stale cached block.
			if _, _, _, gerr := db.Get(keyA, db.LatestSeq()); !errors.Is(gerr, ErrSSTCorrupt) {
				t.Fatalf("warm key after quarantine: err=%v, want ErrSSTCorrupt", gerr)
			}
			// Even through the pre-quarantine reader handle: the purge means
			// the next access re-reads the rotted media and fails — it can
			// never observe the stale plaintext again.
			if _, _, _, _, gerr := r.get(keyA, db.LatestSeq()); !errors.Is(gerr, ErrSSTCorrupt) {
				t.Fatalf("held reader after quarantine: err=%v, want ErrSSTCorrupt", gerr)
			}

			s := reg.Snapshot()
			if got := s.Counter("lsm.quarantine.tables"); got != 1 {
				t.Fatalf("quarantine.tables = %d, want 1", got)
			}
			if got := s.Counter("lsm.cache.quarantine_purges"); got != 1 {
				t.Fatalf("cache.quarantine_purges = %d, want 1", got)
			}
			if got := s.Counter("lsm.corruption.detected"); got == 0 {
				t.Fatal("corruption metric not incremented")
			}
		})
	}
}
