package crashtest

import (
	"sync"
	"testing"

	"treaty/internal/seal"
)

// testKey is fixed so runs are deterministic.
func testKey() seal.Key {
	var k seal.Key
	for i := range k {
		k[i] = byte(i*7 + 3)
	}
	return k
}

// swept holds each cell's sweep result, keyed by cell name, from
// TestCrashPoint until TestReplCrashPoint asserts on it, so a run of both
// tests sweeps every cell once.
var swept sync.Map

// eachCell hands check the sweep of every cell of the table — three
// security levels × two counter kinds (counter files give recovery a
// trusted value, immediate counters give it none). The sweeping test
// (TestCrashPoint) always runs a fresh sweep and leaves its result in
// swept; the other (TestReplCrashPoint) takes that result and sweeps only
// a cell it finds none for, as when it runs alone.
func eachCell(t *testing.T, sweeps bool, check func(t *testing.T, immediate bool, res Result)) {
	ops := 48
	if testing.Short() {
		ops = 14
	}
	for _, lv := range []struct {
		name  string
		level seal.SecurityLevel
	}{
		{"none", seal.LevelNone},
		{"integrity", seal.LevelIntegrity},
		{"encrypted", seal.LevelEncrypted},
	} {
		t.Run(lv.name, func(t *testing.T) {
			t.Parallel()
			for _, immediate := range []bool{false, true} {
				name := map[bool]string{false: "file", true: "immediate"}[immediate]
				key := lv.name + "/" + name
				t.Run(name, func(t *testing.T) {
					if !sweeps {
						if res, ok := swept.LoadAndDelete(key); ok {
							check(t, immediate, res.(Result))
							return
						}
					}
					res, err := Run(Config{
						Level:        lv.level,
						Key:          testKey(),
						Immediate:    immediate,
						Ops:          ops,
						PartialTails: true,
						Logf:         t.Logf,
					})
					if err != nil {
						t.Fatal(err)
					}
					if sweeps {
						swept.Store(key, res)
					}
					check(t, immediate, res)
				})
			}
		})
	}
}

// TestCrashPoint sweeps a power cut across every durable write site of a
// primary's full storage stack and of the backup mirror it ships to, at
// every security level, and asserts the single-node recovery invariants
// from each primary image. `make crashpoint` runs it verbosely.
func TestCrashPoint(t *testing.T) {
	eachCell(t, true, func(t *testing.T, immediate bool, res Result) {
		for _, c := range requiredCategories {
			if res.Categories[c] == 0 && !(c == "ctr" && immediate) {
				t.Errorf("write category %q never hit: %v", c, res.Categories)
			}
		}
		if res.PrimaryImages == 0 || res.TornPrimary == 0 || res.Replays < res.PrimaryImages+res.MirrorImages {
			t.Fatalf("suspicious run: %+v", res)
		}
		t.Logf("primary images=%d (torn %d) replays=%d categories=%v",
			res.PrimaryImages, res.TornPrimary, res.Replays, res.Categories)
	})
}

// TestReplCrashPoint asserts the replication side of the same sweep —
// ship, ack, stabilize: primary images must hold "stabilized ⊆ mirrored",
// and mirror images, torn ones included, must reopen into a verified
// mirror covering every acked group.
func TestReplCrashPoint(t *testing.T) {
	eachCell(t, false, func(t *testing.T, _ bool, res Result) {
		if res.MirrorImages == 0 || res.TornMirror == 0 || res.ShippedGroups == 0 || res.StableChecks == 0 {
			t.Fatalf("suspicious run: %+v", res)
		}
		t.Logf("mirror images=%d (torn %d) shipped=%d stableChecks=%d",
			res.MirrorImages, res.TornMirror, res.ShippedGroups, res.StableChecks)
	})
}
