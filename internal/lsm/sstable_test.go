package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"treaty/internal/seal"
	"treaty/internal/vfs"
)

func buildTestSST(t *testing.T, dir string, level seal.SecurityLevel, key seal.Key, n int) fileMeta {
	t.Helper()
	w, err := newSSTWriter(vfs.Default, dir, 1, level, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ik := makeIKey([]byte(fmt.Sprintf("key-%06d", i)), uint64(i+1), KindSet)
		if err := w.add(ik, []byte(fmt.Sprintf("value-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestSSTWriteReadAllLevels(t *testing.T) {
	for _, level := range levelsUnderTest() {
		t.Run(level.String(), func(t *testing.T) {
			dir := t.TempDir()
			key := testKey(t)
			meta := buildTestSST(t, dir, level, key, 1000)
			r, err := openSST(vfs.Default, dir, 1, level, key, nil, meta.footerHash)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()

			for _, i := range []int{0, 1, 499, 998, 999} {
				uk := []byte(fmt.Sprintf("key-%06d", i))
				v, seq, kind, ok, err := r.get(uk, MaxSeq)
				if err != nil || !ok {
					t.Fatalf("get %s: ok=%v err=%v", uk, ok, err)
				}
				if kind != KindSet || seq != uint64(i+1) {
					t.Errorf("get %s: seq=%d kind=%d", uk, seq, kind)
				}
				if want := fmt.Sprintf("value-%06d", i); string(v) != want {
					t.Errorf("get %s = %q, want %q", uk, v, want)
				}
			}
			// Missing keys.
			if _, _, _, ok, _ := r.get([]byte("key-999999"), MaxSeq); ok {
				t.Error("phantom key found")
			}
			if _, _, _, ok, _ := r.get([]byte("aaa"), MaxSeq); ok {
				t.Error("phantom key before range found")
			}
		})
	}
}

func levelsUnderTest() []seal.SecurityLevel {
	return []seal.SecurityLevel{seal.LevelNone, seal.LevelIntegrity, seal.LevelEncrypted}
}

func testKey(t *testing.T) seal.Key {
	t.Helper()
	k, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSSTIteratorFullScan(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	meta := buildTestSST(t, dir, seal.LevelEncrypted, key, 500)
	r, err := openSST(vfs.Default, dir, 1, seal.LevelEncrypted, key, nil, meta.footerHash)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()

	it := r.newIterator()
	count := 0
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && compareIKeys(prev, it.Key()) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("scanned %d records, want 500", count)
	}
}

func TestSSTTamperedBlockDetected(t *testing.T) {
	for _, level := range []seal.SecurityLevel{seal.LevelIntegrity, seal.LevelEncrypted} {
		t.Run(level.String(), func(t *testing.T) {
			dir := t.TempDir()
			key := testKey(t)
			meta := buildTestSST(t, dir, level, key, 1000)

			// Flip one byte in the first data block.
			path := sstFileName(dir, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[100] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := openSST(vfs.Default, dir, 1, level, key, nil, meta.footerHash)
			if err != nil {
				t.Fatal(err) // index is intact; open succeeds
			}
			defer r.close()
			_, _, _, _, gerr := r.get([]byte("key-000000"), MaxSeq)
			if !errors.Is(gerr, ErrSSTCorrupt) {
				t.Errorf("tampered block read: got %v, want ErrSSTCorrupt", gerr)
			}
		})
	}
}

func TestSSTTamperedIndexDetected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	meta := buildTestSST(t, dir, seal.LevelEncrypted, key, 100)
	path := sstFileName(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the index region (just before the footer).
	data[len(data)-sstFooterLen-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSST(vfs.Default, dir, 1, seal.LevelEncrypted, key, nil, meta.footerHash); !errors.Is(err, ErrSSTCorrupt) {
		t.Errorf("got %v, want ErrSSTCorrupt", err)
	}
}

func TestSSTSubstitutedTableDetected(t *testing.T) {
	// Replace a whole table with another self-consistent one: the
	// manifest-recorded hash must expose the swap.
	dir := t.TempDir()
	key := testKey(t)
	metaA := buildTestSST(t, dir, seal.LevelEncrypted, key, 100)

	dirB := t.TempDir()
	w, err := newSSTWriter(vfs.Default, dirB, 1, seal.LevelEncrypted, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.add(makeIKey([]byte("evil"), 1, KindSet), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	// Swap B's file into A's place.
	if err := os.Rename(sstFileName(dirB, 1), sstFileName(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := openSST(vfs.Default, dir, 1, seal.LevelEncrypted, key, nil, metaA.footerHash); !errors.Is(err, ErrSSTCorrupt) {
		t.Errorf("substituted table: got %v, want ErrSSTCorrupt", err)
	}
}

func TestSSTEncryptedConfidential(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	w, err := newSSTWriter(vfs.Default, dir, 1, seal.LevelEncrypted, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("super-secret-value-payload")
	if err := w.add(makeIKey([]byte("k"), 1, KindSet), secret); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(sstFileName(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Error("plaintext value leaked into encrypted sstable")
	}
	if bytes.Contains(raw, []byte("k")) && len(raw) < 100 {
		t.Error("suspiciously small file")
	}
}

func TestSSTRejectsOutOfOrderKeys(t *testing.T) {
	dir := t.TempDir()
	w, err := newSSTWriter(vfs.Default, dir, 1, seal.LevelNone, seal.Key{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.add(makeIKey([]byte("b"), 1, KindSet), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.add(makeIKey([]byte("a"), 1, KindSet), nil); err == nil {
		t.Error("out-of-order add must fail")
	}
	w.abort()
}

func TestSSTMetaRange(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	meta := buildTestSST(t, dir, seal.LevelEncrypted, key, 10)
	if uk := string(userKeyOf(meta.smallest)); uk != "key-000000" {
		t.Errorf("smallest = %q", uk)
	}
	if uk := string(userKeyOf(meta.largest)); uk != "key-000009" {
		t.Errorf("largest = %q", uk)
	}
	if meta.size == 0 {
		t.Error("size must be recorded")
	}
}
