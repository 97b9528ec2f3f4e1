package durlog

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFileCounterPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "WAL-000001")
	c, err := NewFileCounter(nil, path)
	if err != nil {
		t.Fatalf("NewFileCounter: %v", err)
	}
	c.Stabilize(42)
	if got := c.StableValue(); got != 42 {
		t.Fatalf("StableValue = %d, want 42", got)
	}
	// Reopen: the stable value must survive the "restart".
	c2, err := NewFileCounter(nil, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := c2.StableValue(); got != 42 {
		t.Fatalf("StableValue after reopen = %d, want 42", got)
	}
}

func TestFileCounterNeverRegresses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "WAL-000001")
	c, err := NewFileCounter(nil, path)
	if err != nil {
		t.Fatalf("NewFileCounter: %v", err)
	}
	c.Stabilize(10)
	c.Stabilize(5)
	if got := c.StableValue(); got != 10 {
		t.Fatalf("StableValue = %d, want 10 (regression applied)", got)
	}
}

func TestFileCounterShortFileIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "WAL-000001")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn/truncated counter file must be reported, not read as 0: a
	// zero counter makes recovery discard the WAL as an unstabilized
	// tail, silently losing acknowledged commits.
	if _, err := NewFileCounter(nil, path); err == nil {
		t.Fatal("NewFileCounter accepted a 3-byte counter file")
	}
}

func TestFileCounterStabilizeLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "WAL-000001")
	c, err := NewFileCounter(nil, path)
	if err != nil {
		t.Fatalf("NewFileCounter: %v", err)
	}
	c.Stabilize(7)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after Stabilize: stat err=%v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || len(b) != counterFileLen {
		t.Fatalf("counter file: %d bytes, err=%v; want %d bytes", len(b), err, counterFileLen)
	}
}
