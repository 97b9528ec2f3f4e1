package crashtest

import (
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

// eachCell runs the sweep of every cell of the table — three security
// levels × two counter kinds (counter files give recovery a trusted
// value, immediate counters give it none) — and hands its result to check.
func eachCell(t *testing.T, check func(t *testing.T, immediate bool, res Result)) {
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
				t.Run(name, func(t *testing.T) {
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
					check(t, immediate, res)
				})
			}
		})
	}
}

// TestCrashPoint sweeps a power cut across every durable write site of
// the full storage stack, at every security level, and asserts the
// single-node recovery invariants from each resulting image. `make
// crashpoint` runs it verbosely.
func TestCrashPoint(t *testing.T) {
	eachCell(t, func(t *testing.T, immediate bool, res Result) {
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

// TestReplCrashPoint asserts the replication side of the sweep — ship,
// ack, stabilize: primary images must hold "stabilized ⊆ mirrored", and
// mirror images, torn ones included, must reopen into a verified mirror
// covering every acked group.
func TestReplCrashPoint(t *testing.T) {
	eachCell(t, func(t *testing.T, _ bool, res Result) {
		if res.MirrorImages == 0 || res.TornMirror == 0 || res.ShippedGroups == 0 || res.StableChecks == 0 {
			t.Fatalf("suspicious run: %+v", res)
		}
		t.Logf("mirror images=%d (torn %d) shipped=%d stableChecks=%d",
			res.MirrorImages, res.TornMirror, res.ShippedGroups, res.StableChecks)
	})
}
