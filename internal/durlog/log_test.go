package durlog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"treaty/internal/seal"
	"treaty/internal/vfs"
)

const testPath = "/l/LOG-000001"

func testKey() seal.Key {
	var k seal.Key
	for i := range k {
		k[i] = byte(i*3 + 1)
	}
	return k
}

var allLevels = []seal.SecurityLevel{seal.LevelNone, seal.LevelIntegrity, seal.LevelEncrypted}

func testConfig(fs vfs.FS, level seal.SecurityLevel, ctr TrustedCounter) Config {
	return Config{FS: fs, Path: testPath, Level: level, Key: testKey(), Counter: ctr, Force: true}
}

// emptyFS builds a filesystem holding only the log's directory.
func emptyFS(t testing.TB) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	if err := fs.MkdirAll("/l", 0o755); err != nil {
		t.Fatal(err)
	}
	return fs
}

// imageOf builds a crash image holding exactly data, synced.
func imageOf(t testing.TB, data []byte) *vfs.MemFS {
	t.Helper()
	img := emptyFS(t)
	f, err := img.Create(testPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Sync()
	f.Close()
	img.SyncDir("/l")
	return img
}

// buildLog commits n single-record groups and returns the file bytes, each
// record's end offset and the payloads.
func buildLog(t testing.TB, level seal.SecurityLevel, n int) (full []byte, ends []int, payloads [][]byte) {
	t.Helper()
	fs := emptyFS(t)
	l, err := Create(testConfig(fs, level, NewImmediateCounter()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", 20+i)))
		payloads = append(payloads, p)
		if err := l.Commit([]Entry{{Kind: 1, Payload: p}}, true); err != nil {
			t.Fatal(err)
		}
		full, _ = fs.ReadFile(testPath)
		ends = append(ends, len(full))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return full, ends, payloads
}

// checkPayloads asserts entries replayed exactly the first len(entries)
// payloads with consecutive counters.
func checkPayloads(t *testing.T, what string, entries []Entry, payloads [][]byte) {
	t.Helper()
	for i, e := range entries {
		if string(e.Payload) != string(payloads[i]) || e.Counter != uint64(i+1) {
			t.Fatalf("%s: entry %d replayed as garbage (counter %d)", what, i, e.Counter)
		}
	}
}

// TestTornTailRecovery is the torn-tail property test: a log holding N
// records is truncated at EVERY byte offset of its final record, and
// replay at every security level must either drop the torn record cleanly
// (recovering exactly N-1 intact entries) or — when the trusted counter
// proves the record was acknowledged — refuse recovery with
// ErrRollbackDetected. No truncation point may yield garbage entries or a
// spurious integrity error. Every image is then opened for append, which
// must drop the tail durably: a record committed on top and a second
// replay verify the chain across the seam.
func TestTornTailRecovery(t *testing.T) {
	const n = 4
	for _, level := range allLevels {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			full, ends, payloads := buildLog(t, level, n)
			secureStable := func(v int64) int64 {
				if level == seal.LevelNone {
					return -1
				}
				return v
			}
			// reopen opens img for append, commits one more record and
			// replays the result: kept entries + the new one, chain intact.
			reopen := func(what string, img *vfs.MemFS, maxStable int64, kept int) {
				t.Helper()
				ctr := NewImmediateCounter()
				if maxStable > 0 {
					ctr.Stabilize(uint64(maxStable))
				}
				l, r, err := Open(testConfig(img, level, ctr), maxStable)
				if err != nil || len(r.Entries) != kept {
					t.Fatalf("%s: open for append: %d entries, err=%v", what, len(r.Entries), err)
				}
				rec := []Entry{{Kind: 2, Payload: []byte("after-the-seam")}}
				if err := l.Commit(rec, true); err != nil || rec[0].Counter != uint64(kept)+1 {
					t.Fatalf("%s: commit after dropped tail: ctr=%d err=%v", what, rec[0].Counter, err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				// A power cut right after: the truncation was forced, so the
				// dropped bytes cannot resurface under the new frame.
				r, err = Replay(testConfig(img.CloneCrash(0), level, ctr), secureStable(int64(kept)+1))
				if err != nil || len(r.Entries) != kept+1 || r.Torn || string(r.Entries[kept].Payload) != "after-the-seam" {
					t.Fatalf("%s: replay across the seam: %d entries torn=%v err=%v", what, len(r.Entries), r.Torn, err)
				}
				checkPayloads(t, what, r.Entries[:kept], payloads)
			}

			for cut := ends[n-2]; cut <= ends[n-1]; cut++ {
				what := fmt.Sprintf("cut=%d", cut)
				img := imageOf(t, full[:cut])
				// Counter stable at N-1: the final record was never
				// acknowledged, so any tear inside it must be dropped
				// cleanly.
				r, err := Replay(testConfig(img, level, nil), secureStable(n-1))
				if err != nil {
					t.Fatalf("%s: unexpected error: %v", what, err)
				}
				// At secure levels maxStable=N-1 also bounds an INTACT log:
				// record N is an unstabilized tail and is dropped even when
				// every byte of it survived.
				wantEntries, wantDropped := n-1, 0
				if cut == ends[n-1] {
					if level == seal.LevelNone {
						wantEntries = n
					} else {
						wantDropped = 1
					}
				}
				if len(r.Entries) != wantEntries || len(r.Dropped) != wantDropped {
					t.Fatalf("%s: recovered %d entries + %d dropped, want %d + %d", what, len(r.Entries), len(r.Dropped), wantEntries, wantDropped)
				}
				if r.Torn != (cut > ends[n-2] && cut < ends[n-1]) {
					t.Fatalf("%s: torn=%v", what, r.Torn)
				}
				checkPayloads(t, what, r.Entries, payloads)
				reopen(what, img, secureStable(n-1), wantEntries)

				// Counter stable at N: the final record was acknowledged;
				// losing any byte of it is a rollback, not a tear.
				if level != seal.LevelNone && cut < ends[n-1] {
					if _, err := Replay(testConfig(imageOf(t, full[:cut]), level, nil), n); !errors.Is(err, ErrRollbackDetected) {
						t.Fatalf("%s: acked tail loss not flagged: %v", what, err)
					}
				}
			}

			// Garbage appended past the last synced record is a crash
			// artifact outside the protected region: dropped, flagged torn.
			img := imageOf(t, append(append([]byte(nil), full...), "garbage-tail-NOT-a-record"...))
			r, err := Replay(testConfig(img, level, nil), secureStable(n))
			if err != nil || len(r.Entries) != n || !r.Torn {
				t.Fatalf("garbage tail: %d entries, torn=%v, err=%v", len(r.Entries), r.Torn, err)
			}
			reopen("garbage tail", img, secureStable(n), n)

			// A flipped bit inside the rollback-protected region is not a
			// tear: it must surface as an integrity error.
			if level != seal.LevelNone {
				bad := append([]byte(nil), full...)
				bad[ends[0]+5] ^= 0x01
				if _, err := Replay(testConfig(imageOf(t, bad), level, nil), n); err == nil || errors.Is(err, ErrRollbackDetected) {
					t.Fatalf("tampered protected entry: err=%v, want an integrity error", err)
				}
			}
		})
	}
}

// TestImmediateCounterGivesNoTrustedValue pins the regime of a log without
// rollback protection at the secure levels: whatever the immediate counter
// holds, replay gets no trusted value from it, so a cut inside the final
// frame is a tear and dropped, while a flipped byte in a complete frame —
// the final one included, which a trusted value of n-1 would let go as an
// unacknowledged tail — fails the replay.
func TestImmediateCounterGivesNoTrustedValue(t *testing.T) {
	const n = 4
	for _, level := range allLevels[1:] {
		t.Run(level.String(), func(t *testing.T) {
			full, ends, payloads := buildLog(t, level, n)
			ctr := NewImmediateCounter()
			ctr.Stabilize(n - 1)
			if v := TrustedValue(level, ctr); v != -1 {
				t.Fatalf("TrustedValue of an immediate counter = %d, want -1", v)
			}
			r, err := Replay(testConfig(imageOf(t, full[:ends[n-1]-3]), level, ctr), TrustedValue(level, ctr))
			if err != nil || len(r.Entries) != n-1 || len(r.Dropped) != 0 || !r.Torn {
				t.Fatalf("mid-frame cut: %d entries + %d dropped, torn=%v, err=%v", len(r.Entries), len(r.Dropped), r.Torn, err)
			}
			checkPayloads(t, "mid-frame cut", r.Entries, payloads)
			for _, frame := range []int{1, n - 1} {
				bad := append([]byte(nil), full...)
				bad[ends[frame-1]+5] ^= 0x01
				if _, err := Replay(testConfig(imageOf(t, bad), level, ctr), TrustedValue(level, ctr)); err == nil {
					t.Fatalf("flipped byte in complete frame %d replayed without error", frame+1)
				}
			}
		})
	}
}

// TestDoubleRebootOverDeferredTail reboots twice over a forced-but-
// unstabilized tail — the normal state of a crashed log whose last groups
// deferred their counter round. The first open drops the tail and must
// keep appending on the chain of what it kept, not of what it decoded: the
// second open verifies the hash chain across the seam (the "log hash chain
// broken" bug, which bit MANIFEST and Clog separately).
func TestDoubleRebootOverDeferredTail(t *testing.T) {
	for _, level := range allLevels[1:] {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			fs := emptyFS(t)
			ctr := NewImmediateCounter()
			cfg := testConfig(fs, level, ctr)
			l, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit([]Entry{{Kind: 1, Payload: []byte("stable")}}, true); err != nil {
				t.Fatal(err)
			}
			tail := []Entry{{Kind: 1, Payload: []byte("deferred-a")}, {Kind: 1, Payload: []byte("deferred-b")}}
			if err := l.Commit(tail, false); err != nil {
				t.Fatal(err)
			}
			if l.StableValue() != 1 || l.SyncedCounter() != 3 || l.LastCounter() != 3 {
				t.Fatalf("deferred group must be forced but not stabilized: stable=%d synced=%d appended=%d",
					l.StableValue(), l.SyncedCounter(), l.LastCounter())
			}
			l.Abandon() // crash: no close-time stabilization

			for boot := 1; boot <= 2; boot++ {
				l, r, err := Open(cfg, int64(ctr.StableValue()))
				if err != nil {
					t.Fatalf("boot %d: %v", boot, err)
				}
				if len(r.Entries) != boot || r.Torn {
					t.Fatalf("boot %d recovered %d entries (torn=%v), want %d: the stabilized prefix", boot, len(r.Entries), r.Torn, boot)
				}
				if want := 2 * (2 - boot); len(r.Dropped) != want {
					t.Fatalf("boot %d dropped %d intact records, want %d", boot, len(r.Dropped), want)
				}
				rec := []Entry{{Kind: 1, Payload: []byte("post-reboot")}}
				if err := l.Commit(rec, true); err != nil || rec[0].Counter != uint64(boot)+1 {
					t.Fatalf("boot %d: commit after dropped tail: ctr=%d err=%v", boot, rec[0].Counter, err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPoisonedNeverAcks pins invariant 2 on the log itself: a failed force
// fails the cohort, leaves the counter where it was, makes every later
// Commit fail with the sticky error without touching the file, and Close
// refuses to report a clean shutdown.
func TestPoisonedNeverAcks(t *testing.T) {
	ff := vfs.NewFaultFS(emptyFS(t))
	ctr := NewImmediateCounter()
	l, err := Create(testConfig(ff, seal.LevelEncrypted, ctr))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]Entry{{Kind: 1, Payload: []byte("ok")}}, true); err != nil {
		t.Fatal(err)
	}
	ff.FailNextSyncs(1)
	if err := l.Commit([]Entry{{Kind: 1, Payload: []byte("lost")}}, true); err == nil {
		t.Fatal("commit acked across a failed fsync")
	}
	if ctr.StableValue() != 1 || l.SyncedCounter() != 1 {
		t.Fatalf("counter or synced prefix advanced over a failed fsync: stable=%d synced=%d", ctr.StableValue(), l.SyncedCounter())
	}
	size := func() int { b, _ := ff.ReadFile(testPath); return len(b) }
	before := size()
	if err := l.Commit([]Entry{{Kind: 1, Payload: []byte("later")}}, true); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("post-failure commit = %v, want ErrLogPoisoned", err)
	}
	if size() != before {
		t.Fatal("a poisoned log wrote to its file")
	}
	if err := l.Close(); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("poisoned Close = %v, want ErrLogPoisoned", err)
	}
}

// FuzzLogReplay feeds arbitrary bytes to the one replay loop at all three
// levels with an arbitrary trusted value: it must never panic, never keep
// an entry past the trusted value, and whatever it tolerates must leave a
// log that appends and replays cleanly.
func FuzzLogReplay(f *testing.F) {
	for li, level := range allLevels {
		full, ends, _ := buildLog(f, level, 3)
		for _, cut := range []int{0, 1, ends[0], ends[1] - 1, ends[1], ends[2] - 3, ends[2]} {
			for _, maxStable := range []int64{-1, 0, 2, 3} {
				f.Add(full[:cut], uint8(li), maxStable)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, li uint8, maxStable int64) {
		level := allLevels[int(li)%len(allLevels)]
		if maxStable < -1 {
			maxStable = -1
		}
		ctr := NewImmediateCounter()
		if maxStable > 0 {
			ctr.Stabilize(uint64(maxStable))
		}
		img := imageOf(t, data)
		cfg := testConfig(img, level, ctr)
		l, r, err := Open(cfg, maxStable)
		if err != nil {
			return // refused: rollback or tampering inside the protected region
		}
		for _, e := range r.Entries {
			if maxStable >= 0 && e.Counter > uint64(maxStable) {
				t.Fatalf("kept entry %d past the trusted value %d", e.Counter, maxStable)
			}
		}
		rec := []Entry{{Kind: 9, Payload: []byte("appended-after-replay")}}
		if err := l.Commit(rec, true); err != nil {
			t.Fatalf("commit after replay: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		bound := int64(-1)
		if maxStable >= 0 && rec[0].Counter <= 1<<62 {
			bound = int64(ctr.StableValue())
		}
		r2, err := Replay(cfg, bound)
		if err != nil || r2.Torn || len(r2.Dropped) != 0 {
			t.Fatalf("second replay: torn=%v dropped=%d err=%v", r2.Torn, len(r2.Dropped), err)
		}
		if len(r2.Entries) != len(r.Entries)+1 || string(r2.Entries[len(r.Entries)].Payload) != "appended-after-replay" {
			t.Fatalf("append after replay did not round-trip: %d entries, had %d", len(r2.Entries), len(r.Entries))
		}
	})
}
