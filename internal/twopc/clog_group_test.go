package twopc

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"treaty/internal/durlog"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// TestClogGroupCommitOrdering is the stabilize-before-durable regression
// at every security level: with many coordinator goroutines appending
// concurrently through the group-commit leader, every acknowledged
// token's counter value must already lie within the log's synced prefix
// when Append returns, and the trusted counter must never run ahead of
// that prefix. (The pre-fix Clog stabilized each entry before any fsync,
// so a power cut could persist the counter past the log and trip a
// false-positive ErrRollbackDetected at reboot.)
func TestClogGroupCommitOrdering(t *testing.T) {
	for _, level := range []seal.SecurityLevel{seal.LevelNone, seal.LevelIntegrity, seal.LevelEncrypted} {
		t.Run(level.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			if err := fs.MkdirAll("/c", 0o755); err != nil {
				t.Fatal(err)
			}
			key, err := seal.NewRandomKey()
			if err != nil {
				t.Fatal(err)
			}
			ctr := &fakeCounter{}
			clog, _, err := OpenClog(fs, "/c", level, key, nil, ctr, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer clog.Close()

			const fibers, appendsPer = 8, 40
			var wg sync.WaitGroup
			errCh := make(chan error, fibers)
			for g := 0; g < fibers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < appendsPer; i++ {
						id := globalTxID(uint64(g+1), uint64(i+1))
						token, err := clog.Append(clogDecision, id, true, nil)
						if err != nil {
							errCh <- err
							return
						}
						// Read order matters: synced is monotonic, so a
						// synced value read *after* the ack that is still
						// below the token proves the ack outran the fsync.
						if synced := clog.SyncedCounter(); token.Value() > synced {
							errCh <- fmt.Errorf("acked token %d > synced prefix %d", token.Value(), synced)
							return
						}
						if stable := ctr.StableValue(); stable > clog.SyncedCounter() {
							errCh <- fmt.Errorf("trusted counter %d ran ahead of synced prefix %d", stable, clog.SyncedCounter())
							return
						}
						if !token.Ready() {
							// The group's Stabilize covers its max value,
							// which covers every member.
							errCh <- fmt.Errorf("acked token %d not stable after group commit", token.Value())
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if got, want := clog.LastCounter(), uint64(fibers*appendsPer); got != want {
				t.Fatalf("LastCounter = %d, want %d", got, want)
			}
			if !clog.Stable() {
				t.Fatal("clog not Stable after all appends acked")
			}
		})
	}
}

// TestClogPowerCutNoFalseRollback pins the ordering bugfix end to end: at
// sync-disabled settings (no EnableSync; the leader's per-group force is
// the only durability), a power cut immediately after a burst of acked
// appends must reboot cleanly — with every acked entry recovered — rather
// than refusing to boot with ErrRollbackDetected because the persisted
// trusted counter outran the log.
func TestClogPowerCutNoFalseRollback(t *testing.T) {
	fs := vfs.NewMemFS()
	for _, d := range []string{"/c", "/ctr"} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	// A persistent counter: its Stabilize fsyncs the value, which is
	// exactly what made the old bug a boot refusal — the counter survived
	// the power cut, the unsynced log tail did not.
	ctr, err := durlog.NewFileCounter(fs, "/ctr/CLOG-000001")
	if err != nil {
		t.Fatal(err)
	}
	clog, _, err := OpenClog(fs, "/c", seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	const appends = 25
	var last durlog.StableToken
	for i := 1; i <= appends; i++ {
		if last, err = clog.Append(clogDecision, globalTxID(7, uint64(i)), true, []string{"node-1", "node-2"}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	// Power cut: all volatile (unsynced) state is dropped. No Close.
	dead := fs.CloneCrash(0)

	ctr2, err := durlog.NewFileCounter(dead, "/ctr/CLOG-000001")
	if err != nil {
		t.Fatalf("counter after power cut: %v", err)
	}
	clog2, entries, err := OpenClog(dead, "/c", seal.LevelEncrypted, key, nil, ctr2, int64(ctr2.StableValue()))
	if err != nil {
		t.Fatalf("reboot after power cut refused (the stabilize-before-durable bug): %v", err)
	}
	defer clog2.Close()
	if len(entries) != appends {
		t.Fatalf("recovered %d entries after power cut, want all %d acked", len(entries), appends)
	}
	if _, err := clog2.Append(clogDecision, globalTxID(7, 1), true, nil); err != nil {
		t.Fatalf("rebooted clog rejects appends: %v", err)
	}
}

// TestClogGroupFsyncPoisonsCohort injects a failure into the *group*
// fsync: every append of the failed group errors (nothing in it was
// acked), the log is poisoned for all later appends, the trusted counter
// never advances past the synced prefix, and a reboot recovers exactly
// the pre-failure acked entries.
func TestClogGroupFsyncPoisonsCohort(t *testing.T) {
	mem := vfs.NewMemFS()
	ff := vfs.NewFaultFS(mem)
	if err := ff.MkdirAll("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &fakeCounter{}
	clog, _, err := OpenClog(ff, "/c", seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}

	// A healthy first group.
	okID := globalTxID(1, 1)
	tok, err := clog.Append(clogDecision, okID, true, []string{"node-1"})
	if err == nil {
		err = tok.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	ackedBefore := ctr.StableValue()

	// Arm one fsync failure and race a cohort of appends into the leader;
	// however they group, the first group's sync fails and poisons the
	// log, so NONE of them may ack.
	ff.FailNextSyncs(1)
	const cohort = 6
	var wg sync.WaitGroup
	failed := make([]error, cohort)
	for i := 0; i < cohort; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, failed[i] = clog.Append(clogDecision, globalTxID(2, uint64(i+1)), true, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range failed {
		if err == nil {
			t.Fatalf("cohort append %d acked across a failed group fsync", i)
		}
	}
	if stable := ctr.StableValue(); stable != ackedBefore {
		t.Fatalf("counter advanced to %d over a failed group fsync (synced prefix %d)", stable, ackedBefore)
	}
	// Sticky: the device is healthy again but the chain has a hole.
	if _, err := clog.Append(clogDecision, okID, true, nil); !errors.Is(err, durlog.ErrLogPoisoned) {
		t.Fatalf("post-failure append error = %v, want ErrLogPoisoned", err)
	}
	// A poisoned log must refuse to report a clean close.
	if err := clog.Close(); !errors.Is(err, durlog.ErrLogPoisoned) {
		t.Fatalf("poisoned clog Close = %v, want ErrLogPoisoned", err)
	}

	// Reboot: exactly the acked prefix survives.
	clog2, entries, err := OpenClog(ff, "/c", seal.LevelEncrypted, key, nil, ctr, int64(ctr.StableValue()))
	if err != nil {
		t.Fatalf("reopen after poisoned clog: %v", err)
	}
	defer clog2.Close()
	if len(entries) != 1 || entries[0].TxID != okID {
		t.Fatalf("recovered entries = %+v, want the single acked decision", entries)
	}
}

// TestClogConcurrentAppendHammer is the -race exerciser for coordinator
// fibers vs the group-commit leader: appends, readiness polls, metadata
// reads, and the closed-path all interleave. Run under `go test -race`
// (the Makefile's test-race target includes this package).
func TestClogConcurrentAppendHammer(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := fs.MkdirAll("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &fakeCounter{}
	clog, _, err := OpenClog(fs, "/c", seal.LevelIntegrity, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = clog.LastCounter()
				_ = clog.SyncedCounter()
				_ = clog.Stable()
				_ = clog.TornTailDropped()
			}
		}
	}()
	const fibers, appendsPer = 12, 50
	var wg sync.WaitGroup
	for g := 0; g < fibers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appendsPer; i++ {
				token, err := clog.Append(clogDecision, globalTxID(uint64(g+1), uint64(i+1)), true, []string{"a", "b"})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				for !token.Ready() {
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := clog.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Appends against the closed log fail cleanly instead of racing the
	// leader shutdown.
	if _, err := clog.Append(clogDecision, globalTxID(1, 1), true, nil); !errors.Is(err, ErrClogClosed) {
		t.Fatalf("append after close = %v, want ErrClogClosed", err)
	}
}

// TestClogReopenOverDeferredTail reboots over a forced-but-unstabilized
// tail of decisions — a coordinator that crashed while their counter
// round was out. Recovery drops the tail (presumed abort) and must keep
// appending on the chain of what it kept: the next reboot verifies the
// hash chain across the seam. It runs on the real filesystem, whose
// truncation drops the tail.
func TestClogReopenOverDeferredTail(t *testing.T) {
	dir := t.TempDir()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &manualCounter{} // a round completes only when the test says so
	clog, _, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := clog.Append(clogDecision, globalTxID(1, uint64(i)), true, []string{"n1"}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			ctr.set(1)
		}
	}
	if clog.Stable() || ctr.StableValue() != 1 || clog.SyncedCounter() != 4 {
		t.Fatalf("the tail must be forced but not stabilized: stable=%d synced=%d", ctr.StableValue(), clog.SyncedCounter())
	}
	clog.Abandon() // crash: no close-time stabilization

	for boot := 1; boot <= 2; boot++ {
		clog, entries, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, int64(ctr.StableValue()))
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		if len(entries) != boot {
			t.Fatalf("boot %d recovered %d entries, want %d (the stabilized prefix)", boot, len(entries), boot)
		}
		tok, err := clog.Append(clogDecision, globalTxID(2, uint64(boot)), true, nil)
		if err == nil {
			ctr.set(tok.Value())
			err = tok.Wait()
		}
		if err != nil || tok.Value() != uint64(boot)+1 {
			t.Fatalf("boot %d: append after dropped tail: ctr=%d err=%v", boot, tok.Value(), err)
		}
		if err := clog.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
