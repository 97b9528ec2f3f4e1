package txn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/seal"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	db, err := lsm.Open(lsm.Options{
		Dir:   t.TempDir(),
		Level: seal.LevelEncrypted,
		Key:   key,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return NewManager(Config{DB: db, LockTimeout: 300 * time.Millisecond})
}

func TestPessimisticCommitVisible(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Not visible before commit.
	if _, _, found, _ := m.DB().Get([]byte("k"), m.DB().LatestSeq()); found {
		t.Fatal("uncommitted write visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, found, err := m.DB().Get([]byte("k"), m.DB().LatestSeq())
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("after commit: %q/%v/%v", v, found, err)
	}
}

func TestPessimisticRollbackInvisible(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := m.DB().Get([]byte("k"), m.DB().LatestSeq()); found {
		t.Fatal("rolled-back write visible")
	}
	// The lock must be free for others.
	tx2 := m.BeginPessimistic(nil)
	if err := tx2.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMyOwnWrites(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Put([]byte("k"), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tx.Get([]byte("k"))
	if err != nil || !found || string(v) != "mine" {
		t.Fatalf("RYOW: %q/%v/%v", v, found, err)
	}
	if err := tx.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tx.Get([]byte("k")); found {
		t.Fatal("deleted key visible in own reads")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Put, Delete and Put one key: the transaction reads its last write
	// back, and every way to commit installs that write.
	type writes interface {
		Put(key, value []byte) error
		Delete(key []byte) error
		Get(key []byte) ([]byte, bool, error)
	}
	last := []byte(strings.Repeat("last", 100)) // outgrows the batch's first buffer
	for i, path := range []struct {
		name  string
		begin func() (writes, func() error)
	}{
		{"Txn.Commit", func() (writes, func() error) { tx := m.BeginPessimistic(nil); return tx, tx.Commit }},
		{"Txn.CommitPrepared", func() (writes, func() error) {
			tx := m.BeginPessimistic(nil)
			id := lsm.TxID{15: 1}
			return tx, func() error {
				if err := tx.Prepare(id); err != nil {
					return err
				}
				return tx.CommitPrepared(id)
			}
		}},
		{"OTxn.Commit", func() (writes, func() error) { tx := m.BeginOptimistic(nil); return tx, tx.Commit }},
	} {
		key := []byte(fmt.Sprintf("rewritten-%d", i))
		tx, commit := path.begin()
		for _, err := range []error{tx.Put(key, []byte("first")), tx.Delete(key), tx.Put(key, last)} {
			if err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
		}
		if v, found, err := tx.Get(key); err != nil || !found || string(v) != string(last) {
			t.Fatalf("%s: own read after put, delete, put: %.8q/%v/%v", path.name, v, found, err)
		}
		if err := commit(); err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if v, _, found, err := m.DB().Get(key, m.DB().LatestSeq()); err != nil || !found || string(v) != string(last) {
			t.Fatalf("%s: committed %.8q/%v/%v, want the last write", path.name, v, found, err)
		}
	}
}

func TestWriteWriteConflictTimesOut(t *testing.T) {
	m := newManager(t)
	t1 := m.BeginPessimistic(nil)
	if err := t1.Put([]byte("hot"), []byte("t1")); err != nil {
		t.Fatal(err)
	}
	t2 := m.BeginPessimistic(nil)
	if err := t2.Put([]byte("hot"), []byte("t2")); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("got %v, want ErrLockTimeout", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// After t1 commits, a fresh transaction gets the lock.
	t3 := m.BeginPessimistic(nil)
	if err := t3.Put([]byte("hot"), []byte("t3")); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReadersCoexist(t *testing.T) {
	m := newManager(t)
	seed := m.BeginPessimistic(nil)
	if err := seed.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := m.BeginPessimistic(nil)
	t2 := m.BeginPessimistic(nil)
	if _, _, err := t1.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := t2.Get([]byte("k")); err != nil {
		t.Fatal(err) // two shared locks coexist
	}
	// A writer must wait (time out).
	t3 := m.BeginPessimistic(nil)
	if err := t3.Put([]byte("k"), []byte("w")); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("writer vs readers: got %v", err)
	}
	t1.Rollback()
	t2.Rollback()
}

func TestLockUpgrade(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if _, _, err := tx.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// Sole shared holder upgrades to exclusive.
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := m.Locks().HeldMode(tx.ID(), "k"); got != LockExclusive {
		t.Errorf("mode after upgrade = %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializabilityUnderConcurrentTransfers(t *testing.T) {
	// Classic bank invariant: concurrent transfers preserve total.
	m := newManager(t)
	const accounts, total = 10, 1000
	for i := 0; i < accounts; i++ {
		tx := m.BeginPessimistic(nil)
		if err := tx.Put([]byte(fmt.Sprintf("acct-%d", i)), []byte{100}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := fmt.Sprintf("acct-%d", (w+i)%accounts)
				to := fmt.Sprintf("acct-%d", (w+i+1)%accounts)
				tx := m.BeginPessimistic(nil)
				fv, _, err := tx.Get([]byte(from))
				if err != nil {
					tx.Rollback()
					continue // lock timeout: retry-less abort is fine
				}
				tv, _, err := tx.Get([]byte(to))
				if err != nil {
					tx.Rollback()
					continue
				}
				if fv[0] == 0 {
					tx.Rollback()
					continue
				}
				if err := tx.Put([]byte(from), []byte{fv[0] - 1}); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Put([]byte(to), []byte{tv[0] + 1}); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	sum := 0
	for i := 0; i < accounts; i++ {
		v, _, found, err := m.DB().Get([]byte(fmt.Sprintf("acct-%d", i)), m.DB().LatestSeq())
		if err != nil || !found {
			t.Fatalf("acct-%d: %v %v", i, found, err)
		}
		sum += int(v[0])
	}
	if sum != total {
		t.Errorf("total = %d, want %d (money created or destroyed)", sum, total)
	}
}

func TestOptimisticCommit(t *testing.T) {
	m := newManager(t)
	tx := m.BeginOptimistic(nil)
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, found, _ := m.DB().Get([]byte("k"), m.DB().LatestSeq())
	if !found || string(v) != "v" {
		t.Fatalf("after OCC commit: %q/%v", v, found)
	}

	// A committed delete is a tombstone: the key reads as absent.
	del := m.BeginOptimistic(nil)
	if err := del.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	check := m.BeginOptimistic(nil)
	if v, found, err := check.Get([]byte("k")); err != nil || found {
		t.Fatalf("after OCC delete: %q/%v err=%v", v, found, err)
	}
	check.Rollback()
}

func TestOptimisticConflictDetected(t *testing.T) {
	m := newManager(t)
	seed := m.BeginOptimistic(nil)
	if err := seed.Put([]byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	t1 := m.BeginOptimistic(nil)
	if _, _, err := t1.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// t2 commits a newer version of k before t1.
	t2 := m.BeginOptimistic(nil)
	if err := t2.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put([]byte("other"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
}

func TestOptimisticPhantomAbsence(t *testing.T) {
	// Reading an absent key and committing while someone creates it must
	// conflict (absence is validated as version 0).
	m := newManager(t)
	t1 := m.BeginOptimistic(nil)
	if _, found, err := t1.Get([]byte("ghost")); err != nil || found {
		t.Fatalf("ghost: %v %v", found, err)
	}
	t2 := m.BeginOptimistic(nil)
	if err := t2.Put([]byte("ghost"), []byte("now-exists")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put([]byte("dep"), []byte("on-ghost-absent")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
}

func TestOptimisticReadOnlyNoValidationFailure(t *testing.T) {
	m := newManager(t)
	seed := m.BeginOptimistic(nil)
	if err := seed.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := m.BeginOptimistic(nil)
	if _, _, err := tx.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimisticConcurrentCounterIncrements(t *testing.T) {
	// N goroutines increment the same counter with retry-on-conflict;
	// the final value must equal the number of successful commits.
	m := newManager(t)
	seed := m.BeginOptimistic(nil)
	if err := seed.Put([]byte("ctr"), []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	var success int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for attempt := 0; attempt < 50; attempt++ {
					tx := m.BeginOptimistic(nil)
					v, _, err := tx.Get([]byte("ctr"))
					if err != nil {
						tx.Rollback()
						continue
					}
					if err := tx.Put([]byte("ctr"), []byte{v[0] + 1}); err != nil {
						tx.Rollback()
						continue
					}
					if err := tx.Commit(); err == nil {
						mu.Lock()
						success++
						mu.Unlock()
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	v, _, _, err := m.DB().Get([]byte("ctr"), m.DB().LatestSeq())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	want := byte(success % 256)
	mu.Unlock()
	if v[0] != want {
		t.Errorf("ctr = %d, want %d", v[0], want)
	}
}

func TestPrepareCommitPrepared(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Put([]byte("dist-k"), []byte("dist-v")); err != nil {
		t.Fatal(err)
	}
	var id lsm.TxID
	copy(id[:], "global-tx-1")
	if err := tx.Prepare(id); err != nil {
		t.Fatal(err)
	}
	// Prepared data not yet visible.
	if _, _, found, _ := m.DB().Get([]byte("dist-k"), m.DB().LatestSeq()); found {
		t.Fatal("prepared-but-uncommitted data visible")
	}
	// Locks still held: another writer times out.
	other := m.BeginPessimistic(nil)
	if err := other.Put([]byte("dist-k"), []byte("x")); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("prepared locks not held: %v", err)
	}
	if err := tx.CommitPrepared(id); err != nil {
		t.Fatal(err)
	}
	v, _, found, _ := m.DB().Get([]byte("dist-k"), m.DB().LatestSeq())
	if !found || string(v) != "dist-v" {
		t.Fatalf("after CommitPrepared: %q/%v", v, found)
	}
}

func TestPrepareAbortPrepared(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var id lsm.TxID
	copy(id[:], "global-tx-2")
	if err := tx.Prepare(id); err != nil {
		t.Fatal(err)
	}
	if err := tx.AbortPrepared(id); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := m.DB().Get([]byte("k"), m.DB().LatestSeq()); found {
		t.Fatal("aborted prepared data visible")
	}
	// Locks released.
	tx2 := m.BeginPessimistic(nil)
	if err := tx2.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
}

func TestTxnDoneErrors(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Put after commit: %v", err)
	}
	if _, _, err := tx.Get([]byte("k")); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Get after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}
}

// TestFailedCommitReleasesLocks: a commit whose WAL append fails (here,
// on a closed engine) aborts the transaction and releases its locks, so
// another transaction can take the key at once.
func TestFailedCommitReleasesLocks(t *testing.T) {
	m := newManager(t)
	tx := m.BeginPessimistic(nil)
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m.DB().Close()
	if err := tx.Commit(); err == nil {
		t.Fatal("commit on a closed engine succeeded")
	}
	if mode := m.Locks().HeldMode(tx.ID(), "k"); mode != 0 {
		t.Errorf("failed commit still holds k in mode %d", mode)
	}
	if err := m.BeginPessimistic(nil).Put([]byte("k"), []byte("w")); err != nil {
		t.Errorf("k still locked after a failed commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Rollback after a failed commit = %v, want ErrTxnDone", err)
	}
}

func TestLockTableSharding(t *testing.T) {
	lt := NewLockTable(4, 100*time.Millisecond)
	// Many distinct keys lock independently without contention.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := lt.Acquire(uint64(g+1), key, LockExclusive, nil); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				lt.Release(uint64(g+1), key)
			}
		}(g)
	}
	wg.Wait()
}

// TestLockYieldPath: a fiber that waits for a lock gives its worker away
// — a second fiber of the same (only) worker runs to completion during
// the wait — and still gets its timeout.
func TestLockYieldPath(t *testing.T) {
	lt := NewLockTable(16, 50*time.Millisecond)
	if err := lt.Acquire(1, "k", LockExclusive, nil); err != nil {
		t.Fatal(err)
	}
	s := fibers.New(1, nil)
	defer s.Stop()
	var err error
	var waited, ranMeanwhile atomic.Bool
	waiter, gerr := s.Go(func(f *fibers.Fiber) {
		err = lt.Acquire(2, "k", LockExclusive, f)
		waited.Store(true)
	})
	if gerr != nil {
		t.Fatal(gerr)
	}
	other, gerr := s.Go(func(*fibers.Fiber) { ranMeanwhile.Store(!waited.Load()) })
	if gerr != nil {
		t.Fatal(gerr)
	}
	s.Join(other)
	s.Join(waiter)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("got %v", err)
	}
	if !ranMeanwhile.Load() {
		t.Error("the worker must run another fiber while this one waits for the lock")
	}
}
