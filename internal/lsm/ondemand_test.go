package lsm

import (
	"path/filepath"
	"sync"
	"testing"

	"treaty/internal/durlog"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// fileCounters builds persistent per-log counters on fs, as a node's
// native modes do: one boot's factory caches its handles, a reboot reads
// the files back.
func fileCounters(t *testing.T, fs vfs.FS) CounterFactory {
	t.Helper()
	if err := fs.MkdirAll("/ctr", 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	cache := make(map[string]durlog.TrustedCounter)
	return func(name string) durlog.TrustedCounter {
		mu.Lock()
		defer mu.Unlock()
		if c, ok := cache[name]; ok {
			return c
		}
		c, err := durlog.NewFileCounter(fs, filepath.Join("/ctr", name))
		if err != nil {
			t.Fatalf("counter %s: %v", name, err)
		}
		cache[name] = c
		return c
	}
}

func openOnFS(t *testing.T, fs vfs.FS, key seal.Key, reg *obs.Registry) *DB {
	t.Helper()
	db, err := Open(Options{
		Dir: "/db", FS: fs, Level: seal.LevelEncrypted, Key: key,
		Counters: fileCounters(t, fs), Metrics: reg,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func txid(s string) TxID {
	var id TxID
	copy(id[:], s)
	return id
}

func batchOf(key, value string) *Batch {
	b := NewBatch()
	b.Put([]byte(key), []byte(value))
	return b
}

// TestStabilizeOnDemand pins which WAL records demand a trusted-counter
// round: Apply and LogPrepare do, an outcome record rides the next
// demanded round — yet its token stays waitable, by Wait and by polling.
func TestStabilizeOnDemand(t *testing.T) {
	fs := vfs.NewMemFS()
	reg := obs.NewRegistry()
	db := openOnFS(t, fs, testKey(t), reg)
	defer db.Close()
	stable := func() uint64 { return db.wal.StableValue() }
	metric := func(name string) uint64 { return reg.Snapshot().Counter(name) }

	put(t, db, "a", "1")
	if stable() != 1 {
		t.Fatalf("Apply did not demand a round: stable=%d", stable())
	}
	vote, err := db.LogPrepare(txid("T1"), batchOf("k", "v"))
	if err != nil || !vote.Ready() || stable() != 2 {
		t.Fatalf("LogPrepare did not demand a round: err=%v stable=%d", err, stable())
	}
	demanded := metric("lsm.stabilize.demanded")

	out, err := db.LogOutcome(txid("T1"), true, batchOf("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, db, "k"); !ok || v != "v" {
		t.Fatalf("outcome record did not apply its write set: %q %v", v, ok)
	}
	if stable() != 2 || metric("lsm.wal.stabilize_deferred") != 1 || metric("lsm.stabilize.demanded") != demanded {
		t.Fatalf("outcome record fired a round: stable=%d deferred=%d demanded=%d→%d", stable(),
			metric("lsm.wal.stabilize_deferred"), demanded, metric("lsm.stabilize.demanded"))
	}
	// stable ≤ synced ≤ appended: the deferred record is forced, not stable.
	if app := db.wal.LastCounter(); app != 3 {
		t.Fatalf("appended=%d, want 3", app)
	}
	if err := out.Wait(); err != nil || stable() != 3 {
		t.Fatalf("Wait on a deferred token must raise the demand: err=%v stable=%d", err, stable())
	}

	// The next demanded round covers a deferred record below it, and a
	// polled deferred token raises the demand on its own.
	if _, err := db.LogOutcome(txid("T0"), false, nil); err != nil {
		t.Fatal(err)
	}
	put(t, db, "b", "2")
	if stable() != 5 {
		t.Fatalf("demanded round did not cover the deferred record: stable=%d", stable())
	}
	out, err = db.LogOutcome(txid("T9"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stable() != 5 || !out.Ready() || stable() != 6 {
		t.Fatalf("polling a deferred token must raise the demand and see it served: stable=%d", stable())
	}
}

// TestRotationStabilizesTail is the clobber case the rotation rule
// exists for: an outcome at the (deferred) tail of WAL N, a later
// transaction overwriting the same key in WAL N+1, then a power cut.
// Were the outcome discarded as an unstabilized tail, the transaction
// would come back in doubt and its re-resolution would write the old
// value over the new one.
func TestRotationStabilizesTail(t *testing.T) {
	fs := vfs.NewMemFS()
	key := testKey(t)
	db := openOnFS(t, fs, key, nil)
	id := txid("T1")
	if vote, err := db.LogPrepare(id, batchOf("k", "old")); err != nil || vote.Wait() != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := db.LogOutcome(id, true, batchOf("k", "old")); err != nil {
		t.Fatal(err)
	}
	// Rotate without flushing: WAL N stays live with its memtable.
	db.mu.Lock()
	tail, walN := db.wal.LastCounter(), db.wal
	err := db.rotateMemTableLocked()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if walN.StableValue() != tail {
		t.Fatalf("rotation left WAL N with an unstabilized suffix: stable=%d appended=%d", walN.StableValue(), tail)
	}
	put(t, db, "k", "new")

	img := fs.CloneCrash(0)
	db2 := openOnFS(t, img, key, nil)
	defer db2.Close()
	if p := db2.RecoveredPrepared(); len(p) != 0 {
		t.Fatalf("decided transaction came back in doubt: %d recovered", len(p))
	}
	if v, ok := get(t, db2, "k"); !ok || v != "new" {
		t.Fatalf("k = %q (found=%v) after the power cut, want the newer value", v, ok)
	}
}

// TestPrepareRecordPinsWAL: a WAL holding the prepare record of an
// undecided transaction survives rotation + flush — through two crashes
// in a row — and is retired once the outcome is rollback-protected.
func TestPrepareRecordPinsWAL(t *testing.T) {
	fs := vfs.NewMemFS()
	key := testKey(t)
	db := openOnFS(t, fs, key, nil)
	id := txid("T1")
	if vote, err := db.LogPrepare(id, batchOf("k", "v")); err != nil || vote.Wait() != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 3; i++ {
		put(t, db, "filler", "x")
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Crash twice without resolving: the yes-vote must survive both.
	img := fs.CloneCrash(0)
	for boot := 1; boot <= 2; boot++ {
		db = openOnFS(t, img, key, nil)
		p := db.RecoveredPrepared()
		if len(p) != 1 || p[0].ID != id {
			t.Fatalf("boot %d: yes-vote forgotten after rotation + flush: recovered %d prepared", boot, len(p))
		}
		put(t, db, "filler", "y")
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if boot == 1 {
			img = img.CloneCrash(0)
		}
	}

	// Resolve; once a rotation has stabilized the outcome the pin is gone
	// and the next flush retires every WAL below the live one.
	if _, err := db.LogOutcome(id, true, batchOf("k", "v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		put(t, db, "filler", "z")
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.deleteObsolete()
	if wals, err := listWALs(img, "/db"); err != nil || len(wals) != 1 {
		t.Fatalf("WALs after the outcome stabilized: %v (err=%v), want only the live one", wals, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openOnFS(t, img, key, nil)
	defer db.Close()
	if v, ok := get(t, db, "k"); !ok || v != "v" || len(db.RecoveredPrepared()) != 0 {
		t.Fatalf("resolved transaction after reboot: k=%q found=%v in-doubt=%d", v, ok, len(db.RecoveredPrepared()))
	}
}
