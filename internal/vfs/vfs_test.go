package vfs

import (
	"errors"
	"os"
	"testing"
)

// readAll reads a whole file through an FS.
func readAll(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	b, err := fs.ReadFile(name)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", name, err)
	}
	return b
}

func TestMemFSCrashDurability(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("/db/wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}

	// Nothing synced, dir not synced: crash image is empty.
	crash := m.CloneCrash(0)
	if _, err := crash.Stat("/db/wal"); !os.IsNotExist(err) {
		t.Fatalf("unsynced+unlinked file survived crash: err=%v", err)
	}

	// Dir synced but content not: file exists with only synced bytes.
	if err := m.SyncDir("/db"); err != nil {
		t.Fatal(err)
	}
	crash = m.CloneCrash(0)
	if got := readAll(t, crash, "/db/wal"); len(got) != 0 {
		t.Fatalf("unsynced content survived crash: %q", got)
	}

	// After sync, content survives.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	crash = m.CloneCrash(0)
	if got := string(readAll(t, crash, "/db/wal")); got != "hello" {
		t.Fatalf("synced content lost: %q", got)
	}

	// Unsynced tail is dropped at frac 0, partially kept at frac 0.5.
	if _, err := f.Write([]byte("tailtail")); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, m.CloneCrash(0), "/db/wal")); got != "hello" {
		t.Fatalf("frac 0 kept tail: %q", got)
	}
	if got := string(readAll(t, m.CloneCrash(0.5), "/db/wal")); got != "hellotail" {
		t.Fatalf("frac 0.5: %q", got)
	}
	if got := string(readAll(t, m.CloneCrash(1), "/db/wal")); got != "hellotailtail" {
		t.Fatalf("frac 1: %q", got)
	}
}

// TestMemFSSyncWatermark pins the dirty watermark Sync copies from: a
// write, truncation or O_TRUNC anywhere below the synced length must still
// reach the crash image after the next sync, and nothing unsynced may.
func TestMemFSSyncWatermark(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *MemFS, f File)
		want string
	}{
		{"overwrite below synced length", func(t *testing.T, m *MemFS, _ File) {
			g, err := m.OpenFile("/d/f", os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			g.Write([]byte("AB"))
			g.Sync()
		}, "AB23456789"},
		{"reopen with O_TRUNC", func(t *testing.T, m *MemFS, _ File) {
			g, err := m.OpenFile("/d/f", os.O_WRONLY|os.O_TRUNC, 0)
			if err != nil {
				t.Fatal(err)
			}
			g.Sync()
		}, ""},
		{"shrinking truncate then write", func(t *testing.T, m *MemFS, f File) {
			// f's offset stays at 10, so the write lands above the cut and
			// only the truncation can lower the watermark to 4.
			m.Truncate("/d/f", 4)
			f.Write([]byte("ZZ"))
			f.Sync()
		}, "0123\x00\x00\x00\x00\x00\x00ZZ"},
		{"unsynced overwrite", func(t *testing.T, m *MemFS, _ File) {
			g, err := m.OpenFile("/d/f", os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			g.Write([]byte("AB"))
		}, "0123456789"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemFS()
			m.MkdirAll("/d", 0o755)
			f, err := m.Create("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("01234"))
			f.Sync()
			f.Write([]byte("56789"))
			f.Sync()
			m.SyncDir("/d")
			tc.run(t, m, f)
			if got := string(readAll(t, m.CloneCrash(0), "/d/f")); got != tc.want {
				t.Fatalf("crash image %q, want %q", got, tc.want)
			}
		})
	}
}

func TestMemFSRenameDurability(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	f, _ := m.Create("/d/tmp")
	f.Write([]byte("v1"))
	f.Sync()
	m.SyncDir("/d")
	if err := m.Rename("/d/tmp", "/d/final"); err != nil {
		t.Fatal(err)
	}
	// Rename not dir-synced: crash sees the old name.
	crash := m.CloneCrash(0)
	if _, err := crash.Stat("/d/tmp"); err != nil {
		t.Fatalf("pre-syncdir crash lost old name: %v", err)
	}
	if _, err := crash.Stat("/d/final"); !os.IsNotExist(err) {
		t.Fatalf("rename durable before SyncDir: %v", err)
	}
	m.SyncDir("/d")
	crash = m.CloneCrash(0)
	if got := string(readAll(t, crash, "/d/final")); got != "v1" {
		t.Fatalf("post-syncdir rename: %q", got)
	}
	if _, err := crash.Stat("/d/tmp"); !os.IsNotExist(err) {
		t.Fatalf("old name survived syncdir: %v", err)
	}
}

func TestMemFSBasicOps(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/a/b", 0o755)
	if _, err := m.Create("/missing/x"); err == nil {
		t.Fatal("create without parent dir succeeded")
	}
	f, err := m.Create("/a/b/f1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("/a/b/f1"); err == nil {
		t.Fatal("exclusive create over existing file succeeded")
	}
	f.Write([]byte("0123456789"))
	rd, err := m.Open("/a/b/f1")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := rd.ReadAt(buf, 3); err != nil || string(buf[:n]) != "3456" {
		t.Fatalf("ReadAt: %q %v", buf[:n], err)
	}
	if err := m.Truncate("/a/b/f1", 4); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, m, "/a/b/f1")); got != "0123" {
		t.Fatalf("after truncate: %q", got)
	}
	// Append mode.
	af, err := m.OpenFile("/a/b/f1", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("xy"))
	if got := string(readAll(t, m, "/a/b/f1")); got != "0123xy" {
		t.Fatalf("after append: %q", got)
	}
	ents, err := m.ReadDir("/a/b")
	if err != nil || len(ents) != 1 || ents[0].Name() != "f1" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if ents[0].IsDir() || !ents[0].Type().IsRegular() {
		t.Fatalf("ReadDir entry: dir=%v type=%v", ents[0].IsDir(), ents[0].Type())
	}
	if fi, err := m.Stat("/a/b/f1"); err != nil || fi.Name() != "f1" || fi.Size() != 6 || fi.IsDir() {
		t.Fatalf("Stat(file): %v %v", fi, err)
	}
	if fi, err := m.Stat("/a/b"); err != nil || !fi.IsDir() || !fi.Mode().IsDir() {
		t.Fatalf("Stat(dir): %v %v", fi, err)
	}
	if err := m.Remove("/a/b/f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("/a/b/f1"); !os.IsNotExist(err) {
		t.Fatalf("stat after remove: %v", err)
	}
}

func TestMemFSHook(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d", 0o755)
	var ops []string
	m.SetHook(func(e Event) {
		ops = append(ops, e.Op)
		// The hook must be able to snapshot without deadlocking.
		m.CloneCrash(0)
	})
	f, _ := m.Create("/d/f")
	f.Write([]byte("x"))
	f.Sync()
	m.SyncDir("/d")
	want := []string{"create", "write", "sync", "syncdir"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestFaultFSSyncFailureDropsTail(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/d", 0o755)
	ff := NewFaultFS(mem)
	f, err := ff.Create("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("stable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-lost"))
	ff.FailNextSyncs(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v", err)
	}
	// fsyncgate: the unsynced tail is gone from the file itself, not
	// just the durable view.
	if got := string(readAll(t, ff, "/d/log")); got != "stable" {
		t.Fatalf("after failed sync: %q", got)
	}
	if ff.SyncsFailed() != 1 {
		t.Fatalf("SyncsFailed = %d", ff.SyncsFailed())
	}
	// Faults off again: handle keeps working at the truncated offset
	// only if the caller seeks; our append-style writers reopen instead.
	ff.Reset()
	// A truncate by path reaches the inner filesystem.
	if err := ff.Truncate("/d/log", 3); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, mem, "/d/log")); got != "sta" {
		t.Fatalf("after truncate: %q", got)
	}
}

func TestFaultFSWriteBudget(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/d", 0o755)
	ff := NewFaultFS(mem)
	ff.SetWriteBudget(4)
	f, _ := ff.Create("/d/f")
	if n, err := f.Write([]byte("abcd")); n != 4 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	if _, err := f.Write([]byte("e")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over budget err = %v", err)
	}
	ff.Reset()
	if _, err := f.Write([]byte("e")); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestFaultFSScriptedWriteAndTorn(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/d", 0o755)
	ff := NewFaultFS(mem)
	f, _ := ff.Create("/d/f")
	ff.FailNextWrites(1)
	if n, err := f.Write([]byte("xx")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted write: n=%d err=%v", n, err)
	}
	if ff.WritesFailed() != 1 {
		t.Fatalf("WritesFailed = %d", ff.WritesFailed())
	}
	// Torn write: some prefix lands, then error.
	ff.SetShortWriteProb(1)
	n, err := f.Write([]byte("0123456789"))
	if err == nil || n <= 0 || n >= 10 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	if got := readAll(t, ff, "/d/f"); len(got) != n {
		t.Fatalf("file holds %d bytes, wrote %d", len(got), n)
	}
}

func TestFaultFSReadRot(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/d", 0o755)
	ff := NewFaultFS(mem)
	f, _ := ff.Create("/d/f")
	f.Write([]byte("payload-payload"))
	f.Sync()
	ff.SetReadRot(1, true)
	got, err := ff.ReadFile("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "payload-payload" {
		t.Fatal("rot did not flip any bit")
	}
	if ff.ReadsRotted() == 0 {
		t.Fatal("ReadsRotted not counted")
	}
	// Underlying bytes are untouched (rot is read-side).
	if string(readAll(t, mem, "/d/f")) != "payload-payload" {
		t.Fatal("rot corrupted the stored bytes")
	}
}

func TestFaultFSMatchFilter(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/d", 0o755)
	ff := NewFaultFS(mem)
	ff.SetMatch(func(name string) bool { return name == "/d/target" })
	ff.FailNextWrites(1)
	f, _ := ff.Create("/d/other")
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("non-matching path failed: %v", err)
	}
	tgt, _ := ff.Create("/d/target")
	if _, err := tgt.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching path did not fail: %v", err)
	}
}

func TestOSBackend(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OS{}
	f, err := fs.Create(dir + "/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, fs, dir+"/f")); got != "data" {
		t.Fatalf("os backend: %q", got)
	}
	if err := fs.Rename(dir+"/f", dir+"/g"); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "g" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
}
