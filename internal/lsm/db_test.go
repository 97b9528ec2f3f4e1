package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/seal"
)

// testCounters is a CounterFactory whose counters survive "restarts"
// (shared across Open calls), modelling the external trusted counter
// service.
type testCounters struct {
	mu sync.Mutex
	m  map[string]durlog.TrustedCounter
}

// serviceCounter is a counter recovery trusts: being a type of its own, it
// is not the immediate counter durlog.TrustedValue ignores.
type serviceCounter struct{ durlog.TrustedCounter }

func newTestCounters() *testCounters {
	return &testCounters{m: make(map[string]durlog.TrustedCounter)}
}

func (tc *testCounters) factory(name string) durlog.TrustedCounter {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if c, ok := tc.m[name]; ok {
		return c
	}
	c := serviceCounter{durlog.NewImmediateCounter()}
	tc.m[name] = c
	return c
}

// rollbackTo rewinds no counters — but exposes the stable values so tests
// can assert; rollback attacks are simulated by restoring old *files*
// while counters keep their (higher) values.
func (tc *testCounters) stable(name string) uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if c, ok := tc.m[name]; ok {
		return c.StableValue()
	}
	return 0
}

func openTestDB(t *testing.T, dir string, level seal.SecurityLevel, key seal.Key, tc *testCounters) *DB {
	t.Helper()
	opt := Options{Dir: dir, Level: level, Key: key, MemTableSize: 64 << 10}
	if tc != nil {
		opt.Counters = tc.factory
	}
	db, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func put(t *testing.T, db *DB, key, value string) {
	t.Helper()
	b := NewBatch()
	b.Put([]byte(key), []byte(value))
	if _, _, err := db.Apply(b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

func get(t *testing.T, db *DB, key string) (string, bool) {
	t.Helper()
	v, _, ok, err := db.Get([]byte(key), db.LatestSeq())
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func TestDBPutGetDelete(t *testing.T) {
	for _, level := range levelsUnderTest() {
		t.Run(level.String(), func(t *testing.T) {
			db := openTestDB(t, t.TempDir(), level, testKey(t), nil)
			defer db.Close()

			put(t, db, "alpha", "1")
			put(t, db, "beta", "2")
			if v, ok := get(t, db, "alpha"); !ok || v != "1" {
				t.Errorf("alpha = %q/%v", v, ok)
			}
			// Overwrite.
			put(t, db, "alpha", "updated")
			if v, _ := get(t, db, "alpha"); v != "updated" {
				t.Errorf("alpha after update = %q", v)
			}
			// Delete.
			b := NewBatch()
			b.Delete([]byte("beta"))
			if _, _, err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
			if _, ok := get(t, db, "beta"); ok {
				t.Error("beta must be deleted")
			}
			if _, ok := get(t, db, "never"); ok {
				t.Error("phantom key")
			}
		})
	}
}

func TestDBSnapshotReads(t *testing.T) {
	db := openTestDB(t, t.TempDir(), seal.LevelEncrypted, testKey(t), nil)
	defer db.Close()

	put(t, db, "k", "v1")
	seq1 := db.LatestSeq()
	put(t, db, "k", "v2")

	v, _, ok, err := db.Get([]byte("k"), seq1)
	if err != nil || !ok || string(v) != "v1" {
		t.Errorf("snapshot read = %q/%v/%v, want v1", v, ok, err)
	}
	v, _, ok, _ = db.Get([]byte("k"), db.LatestSeq())
	if !ok || string(v) != "v2" {
		t.Errorf("latest read = %q, want v2", v)
	}
}

func TestDBBatchAtomicSeqs(t *testing.T) {
	db := openTestDB(t, t.TempDir(), seal.LevelEncrypted, testKey(t), nil)
	defer db.Close()

	b := NewBatch()
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	_, base, err := db.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if base == 0 {
		t.Error("base seq must be assigned")
	}
	for i := 0; i < 10; i++ {
		v, seq, ok, err := db.Get([]byte(fmt.Sprintf("k%d", i)), db.LatestSeq())
		if err != nil || !ok {
			t.Fatalf("k%d: %v %v", i, ok, err)
		}
		if seq != base+uint64(i) {
			t.Errorf("k%d seq = %d, want %d", i, seq, base+uint64(i))
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("k%d = %q", i, v)
		}
	}
}

func fillKeys(t *testing.T, db *DB, n, valueSize int) {
	t.Helper()
	val := bytes.Repeat([]byte("x"), valueSize)
	for i := 0; i < n; i++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("key-%06d", i)), append(val, []byte(fmt.Sprint(i))...))
		if _, _, err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDBFlushAndReadBack(t *testing.T) {
	for _, level := range levelsUnderTest() {
		t.Run(level.String(), func(t *testing.T) {
			db := openTestDB(t, t.TempDir(), level, testKey(t), nil)
			defer db.Close()
			fillKeys(t, db, 500, 256) // > memtable size: triggers flushes
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if db.Stats().Flushes == 0 {
				t.Error("expected at least one flush")
			}
			for _, i := range []int{0, 100, 250, 499} {
				v, ok := get(t, db, fmt.Sprintf("key-%06d", i))
				if !ok || !bytes.HasSuffix([]byte(v), []byte(fmt.Sprint(i))) {
					t.Errorf("key-%06d = %q/%v after flush", i, v[min(20, len(v)):], ok)
				}
			}
		})
	}
}

func TestDBCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Dir: dir, Level: seal.LevelEncrypted, Key: testKey(t),
		MemTableSize: 16 << 10, L0Trigger: 2, BaseLevelBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Write enough overlapping data to force L0→L1 compactions.
	for round := 0; round < 6; round++ {
		for i := 0; i < 200; i++ {
			b := NewBatch()
			b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("r%d-i%d-%s", round, i, bytes.Repeat([]byte("p"), 100))))
			if _, _, err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Give compaction a chance.
	db.scheduleBG()
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Compactions == 0 && time.Now().Before(deadline) {
		db.scheduleBG()
		time.Sleep(5 * time.Millisecond)
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	// Every key must read its newest round.
	for i := 0; i < 200; i++ {
		v, ok := get(t, db, fmt.Sprintf("key-%04d", i))
		if !ok || !bytes.HasPrefix([]byte(v), []byte("r5-")) {
			t.Fatalf("key-%04d = %.10q/%v after compaction", i, v, ok)
		}
	}
	if err := db.BGErr(); err != nil {
		t.Fatal(err)
	}
}

func TestDBIterator(t *testing.T) {
	db := openTestDB(t, t.TempDir(), seal.LevelEncrypted, testKey(t), nil)
	defer db.Close()

	put(t, db, "a", "1")
	put(t, db, "c", "3")
	put(t, db, "b", "2")
	put(t, db, "b", "2-updated")
	b := NewBatch()
	b.Delete([]byte("c"))
	if _, _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	put(t, db, "d", "4")

	it, err := db.NewIterator(db.LatestSeq())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want := "[a=1 b=2-updated d=4]"
	if fmt.Sprint(got) != want {
		t.Errorf("scan = %v, want %v", got, want)
	}
}

func TestDBIteratorAcrossFlush(t *testing.T) {
	db := openTestDB(t, t.TempDir(), seal.LevelEncrypted, testKey(t), nil)
	defer db.Close()
	fillKeys(t, db, 300, 256)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// More writes into the fresh memtable so the iterator merges both.
	put(t, db, "key-000100", "overwritten")
	it, err := db.NewIterator(db.LatestSeq())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key()) == "key-000100" && string(it.Value()) != "overwritten" {
			t.Error("iterator must see the newest version")
		}
		count++
	}
	if count != 300 {
		t.Errorf("scanned %d keys, want 300", count)
	}
}

func TestDBRecoveryFromWAL(t *testing.T) {
	for _, level := range levelsUnderTest() {
		t.Run(level.String(), func(t *testing.T) {
			dir := t.TempDir()
			key := testKey(t)
			tc := newTestCounters()
			db := openTestDB(t, dir, level, key, tc)
			put(t, db, "persist-1", "v1")
			put(t, db, "persist-2", "v2")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := openTestDB(t, dir, level, key, tc)
			defer db2.Close()
			for i, want := range []string{"v1", "v2"} {
				if v, ok := get(t, db2, fmt.Sprintf("persist-%d", i+1)); !ok || v != want {
					t.Errorf("persist-%d = %q/%v", i+1, v, ok)
				}
			}
			// Writes continue after recovery.
			put(t, db2, "persist-3", "v3")
			if v, _ := get(t, db2, "persist-3"); v != "v3" {
				t.Error("write after recovery failed")
			}
		})
	}
}

func TestDBRecoveryWithSSTables(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	fillKeys(t, db, 400, 256)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put(t, db, "after-flush", "wal-only")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	defer db2.Close()
	if v, ok := get(t, db2, "key-000123"); !ok || !bytes.HasSuffix([]byte(v), []byte("123")) {
		t.Errorf("flushed key after recovery: %v", ok)
	}
	if v, ok := get(t, db2, "after-flush"); !ok || v != "wal-only" {
		t.Errorf("wal key after recovery = %q/%v", v, ok)
	}
}

func TestDBSeqContinuesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	put(t, db, "a", "1")
	put(t, db, "b", "2")
	seqBefore := db.LatestSeq()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	defer db2.Close()
	if got := db2.LatestSeq(); got != seqBefore {
		t.Errorf("LatestSeq after recovery = %d, want %d", got, seqBefore)
	}
	put(t, db2, "c", "3")
	if db2.LatestSeq() <= seqBefore {
		t.Error("sequence must advance past recovered point")
	}
}

func TestDBRollbackAttackDetected(t *testing.T) {
	// Run some commits, snapshot the WAL, run more commits (raising the
	// trusted counter), then restore the old WAL — a rollback. Recovery
	// must refuse.
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	put(t, db, "k", "old")

	// Snapshot the current WAL file (the stale state to roll back to).
	walPath := walFileName(dir, db.mem.logNumber)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	put(t, db, "k", "newer-1")
	put(t, db, "k", "newer-2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The adversary restores the stale WAL.
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir, Level: seal.LevelEncrypted, Key: key, Counters: tc.factory})
	if !errors.Is(err, durlog.ErrRollbackDetected) {
		t.Fatalf("rollback open: got %v, want durlog.ErrRollbackDetected", err)
	}
}

func TestDBWALTamperDetected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	put(t, db, "k", "v")
	walPath := walFileName(dir, db.mem.logNumber)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Level: seal.LevelEncrypted, Key: key, Counters: tc.factory}); err == nil {
		t.Fatal("tampered WAL must fail recovery")
	}
}

func TestDBManifestTamperDetected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	fillKeys(t, db, 200, 256)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := manifestName(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Level: seal.LevelEncrypted, Key: key, Counters: tc.factory}); err == nil {
		t.Fatal("tampered MANIFEST must fail recovery")
	}
}

func TestDBDeletedSSTableDetected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	fillKeys(t, db, 400, 256)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete one sstable the manifest references.
	matches, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sstables found: %v", err)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Level: seal.LevelEncrypted, Key: key, Counters: tc.factory}); !errors.Is(err, durlog.ErrRollbackDetected) {
		t.Fatalf("got %v, want durlog.ErrRollbackDetected", err)
	}
}

func TestDBPreparedTxRecovery(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	tc := newTestCounters()
	db := openTestDB(t, dir, seal.LevelEncrypted, key, tc)

	// Prepare two transactions; decide one; leave one pending.
	var idA, idB TxID
	copy(idA[:], "tx-A-----------")
	copy(idB[:], "tx-B-----------")
	bA := NewBatch()
	bA.Put([]byte("a-key"), []byte("a-val"))
	if _, err := db.LogPrepare(idA, bA); err != nil {
		t.Fatal(err)
	}
	bB := NewBatch()
	bB.Put([]byte("b-key"), []byte("b-val"))
	if _, err := db.LogPrepare(idB, bB); err != nil {
		t.Fatal(err)
	}
	// Decide A (commit): one outcome record carries verdict and data.
	if _, err := db.LogOutcome(idA, true, bA); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	defer db2.Close()
	pending := db2.RecoveredPrepared()
	if len(pending) != 1 {
		t.Fatalf("recovered %d pending txs, want 1", len(pending))
	}
	if pending[0].ID != idB {
		t.Errorf("pending tx = %q, want tx-B", pending[0].ID[:])
	}
	if pending[0].Batch.Count() != 1 {
		t.Errorf("pending batch count = %d", pending[0].Batch.Count())
	}
	// A's data is there; B's is not (undecided).
	if v, ok := get(t, db2, "a-key"); !ok || v != "a-val" {
		t.Error("decided tx data missing after recovery")
	}
	if _, ok := get(t, db2, "b-key"); ok {
		t.Error("undecided prepared tx must not be visible")
	}
}

// TestApplyLogEqualsRecovery pins that promotion replays a WAL stream the
// way recovery does: one stream — committed batches, a prepare decided
// after a WAL rotation, a prepare aborted and one left undecided — read
// back (a) by reopening its DB from the files and (b) by applying the
// groups its Ship hook captured to a fresh DB must agree on every key and
// on the undecided set.
func TestApplyLogEqualsRecovery(t *testing.T) {
	dir, key := t.TempDir(), testKey(t)
	tc := newTestCounters()
	var shipped []durlog.Entry
	db, err := Open(Options{Dir: dir, Level: seal.LevelEncrypted, Key: key, Counters: tc.factory, MemTableSize: 64 << 10,
		Ship: func(group []ReplEntry) {
			for _, e := range group {
				shipped = append(shipped, durlog.Entry{Kind: e.Kind, Counter: e.Counter, Payload: bytes.Clone(e.Payload)})
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	tx := func(name string) (id TxID, b *Batch) {
		copy(id[:], name)
		b = NewBatch()
		b.Put([]byte(name+"-key"), []byte(name+"-val"))
		if _, err := db.LogPrepare(id, b); err != nil {
			t.Fatal(err)
		}
		return id, b
	}
	for i := 0; i < 20; i++ {
		put(t, db, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	del := NewBatch()
	del.Delete([]byte("k03"))
	if _, _, err := db.Apply(del); err != nil {
		t.Fatal(err)
	}
	rotated, rb := tx("rotated")
	aborted, ab := tx("aborted")
	undecided, _ := tx("undecided")
	if err := db.Flush(); err != nil { // the prepares' WAL rotates out
		t.Fatal(err)
	}
	for _, o := range []struct {
		id     TxID
		commit bool
		b      *Batch
	}{{rotated, true, rb}, {aborted, false, ab}} {
		if _, err := db.LogOutcome(o.id, o.commit, o.b); err != nil {
			t.Fatal(err)
		}
	}
	put(t, db, "k01", "rewritten")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openTestDB(t, dir, seal.LevelEncrypted, key, tc)
	defer recovered.Close()
	promoted := openTestDB(t, t.TempDir(), seal.LevelEncrypted, key, nil)
	defer promoted.Close()
	applied, err := promoted.ApplyLog(shipped)
	if err != nil {
		t.Fatal(err)
	}

	contents := func(db *DB) map[string]string {
		it, err := db.NewIterator(db.LatestSeq())
		if err != nil {
			t.Fatal(err)
		}
		kv := map[string]string{}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			kv[string(it.Key())] = string(it.Value())
		}
		return kv
	}
	want, got := contents(recovered), contents(promoted)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("promoted state differs from recovered state:\nrecovered %v\npromoted  %v", want, got)
	}
	if want["rotated-key"] != "rotated-val" || want["k01"] != "rewritten" || want["k03"] != "" || len(want) != 20 {
		t.Fatalf("recovered state is not the stream's: %v", want)
	}
	inDoubt := recovered.RecoveredPrepared()
	if len(inDoubt) != 1 || len(applied) != 1 || inDoubt[0].ID != undecided || applied[0].ID != undecided ||
		!bytes.Equal(inDoubt[0].Batch.Encoded(), applied[0].Batch.Encoded()) {
		t.Fatalf("undecided sets differ: recovered %v, promoted %v", inDoubt, applied)
	}
}

func TestDBConcurrentWriters(t *testing.T) {
	db := openTestDB(t, t.TempDir(), seal.LevelEncrypted, testKey(t), nil)
	defer db.Close()
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b := NewBatch()
				b.Put([]byte(fmt.Sprintf("w%d-k%d", w, i)), []byte(fmt.Sprintf("v%d", i)))
				if _, _, err := db.Apply(b); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for _, i := range []int{0, per / 2, per - 1} {
			if v, ok := get(t, db, fmt.Sprintf("w%d-k%d", w, i)); !ok || v != fmt.Sprintf("v%d", i) {
				t.Errorf("w%d-k%d = %q/%v", w, i, v, ok)
			}
		}
	}
}

func TestDBCloseIdempotentAndRejectsWrites(t *testing.T) {
	db := openTestDB(t, t.TempDir(), seal.LevelEncrypted, testKey(t), nil)
	put(t, db, "k", "v")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
	b := NewBatch()
	b.Put([]byte("x"), []byte("y"))
	if _, _, err := db.Apply(b); !errors.Is(err, ErrDBClosed) {
		t.Errorf("got %v, want ErrDBClosed", err)
	}
}

func TestBatchEncodeDecodeProperty(t *testing.T) {
	b := NewBatch()
	if off := b.Put([]byte("k1"), []byte("v1")); string(b.Encoded()[off:off+2]) != "v1" {
		t.Errorf("Put's value offset %d does not locate the value", off)
	}
	b.Delete([]byte("k2"))
	b.Put([]byte(""), []byte("")) // empty key and value are legal
	d, err := DecodeBatch(b.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []RecordKind
	d.Each(func(kind RecordKind, _, _ []byte) error { kinds = append(kinds, kind); return nil })
	if d.Count() != 3 || len(kinds) != 3 || kinds[0] != KindSet || kinds[1] != KindDelete {
		t.Errorf("decoded %d records, kinds %v", d.Count(), kinds)
	}
	// Truncated batches fail cleanly.
	enc := b.Encoded()
	for cut := 5; cut < len(enc); cut += 3 {
		if _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Errorf("truncation at %d undetected", cut)
		}
	}
	// A count the payload cannot hold (every record takes two bytes or
	// more) fails before anything is sized by it, and so do lengths
	// past the payload, however large.
	for _, bad := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},
		{3, 0, 0, 0, byte(KindDelete), 0, byte(KindDelete), 0},
		append([]byte{1, 0, 0, 0, byte(KindDelete)}, binary.AppendUvarint(nil, 1<<63)...),
	} {
		if _, err := DecodeBatch(bad); !errors.Is(err, ErrCorruptBatch) {
			t.Errorf("DecodeBatch(%x) = %v, want ErrCorruptBatch", bad, err)
		}
	}
}
