package twopc

import (
	"errors"
	"testing"

	"treaty/internal/durlog"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// TestClogSyncFailureFailStop is the coordinator-log fail-stop
// regression: one injected fsync failure (fsyncgate semantics — the
// unsynced tail is dropped by the fault layer) must poison the Clog so
// every later Append is refused with a sticky ErrLogPoisoned, and a
// reopen must recover exactly the pre-failure entries.
func TestClogSyncFailureFailStop(t *testing.T) {
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
	clog, recovered, err := OpenClog(ff, "/c", seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatal("fresh clog must be empty")
	}

	// The first record is stable before the failure.
	okID := globalTxID(1, 1)
	tok, err := clog.Append(clogDecision, okID, true, []string{"node-1"})
	if err == nil {
		err = tok.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}

	ff.FailNextSyncs(1)
	lostID := globalTxID(1, 2)
	if _, err := clog.Append(clogDecision, lostID, true, nil); err == nil {
		t.Fatal("append acknowledged over a failed fsync")
	}

	// The device is healthy again, but the handle must stay poisoned: the
	// codec chain has advanced past the dropped entry, so appending would
	// splice the protocol log across the hole.
	if _, err := clog.Append(clogDecision, lostID, true, nil); !errors.Is(err, durlog.ErrLogPoisoned) {
		t.Fatalf("post-failure append error = %v, want ErrLogPoisoned", err)
	}
	_ = clog.Close()

	// Reopen: only the pre-failure entry survives, and the log accepts
	// appends again (a restart re-ran recovery, clearing the fail-stop).
	clog2, entries, err := OpenClog(ff, "/c", seal.LevelEncrypted, key, nil, ctr, int64(ctr.StableValue()))
	if err != nil {
		t.Fatalf("reopen after poisoned clog: %v", err)
	}
	defer clog2.Close()
	if len(entries) != 1 || entries[0].Kind != clogDecision || entries[0].TxID != okID {
		t.Fatalf("recovered entries = %+v, want the single pre-failure decision", entries)
	}
	if _, err := clog2.Append(clogDecision, okID, true, nil); err != nil {
		t.Fatalf("reopened clog rejects appends: %v", err)
	}
}
