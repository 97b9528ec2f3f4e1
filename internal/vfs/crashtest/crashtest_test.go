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

// counterKinds is the second table dimension of both sweeps: counter files
// give recovery a trusted value, immediate counters give it none.
var counterKinds = []struct {
	name      string
	immediate bool
}{
	{"file", false},
	{"immediate", true},
}

// TestReplCrashPoint sweeps a power cut across both sides of the
// replication pipeline — ship, ack, stabilize — at every security
// level: primary images must hold the single-node recovery invariants
// plus "stabilized ⊆ replicated-and-synced", and backup images must
// reboot into a verified mirror covering every acked group.
func TestReplCrashPoint(t *testing.T) {
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
		lv := lv
		t.Run(lv.name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range counterKinds {
				t.Run(kind.name, func(t *testing.T) {
					res, err := RunRepl(Config{
						Level:        lv.level,
						Key:          testKey(),
						Immediate:    kind.immediate,
						Ops:          ops,
						PartialTails: true,
						Logf:         t.Logf,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.PrimaryImages == 0 || res.BackupImages == 0 || res.ShippedGroups == 0 || res.StableChecks == 0 {
						t.Fatalf("suspicious run: %+v", res)
					}
					t.Logf("primary=%d backup=%d replays=%d shipped=%d stableChecks=%d",
						res.PrimaryImages, res.BackupImages, res.Replays, res.ShippedGroups, res.StableChecks)
				})
			}
		})
	}
}

// TestCrashPoint sweeps a power cut across every durable write site of
// the full storage stack, at every security level, and asserts the
// recovery invariants from each resulting image. `make crashpoint` runs
// it verbosely.
func TestCrashPoint(t *testing.T) {
	ops := 48
	if testing.Short() {
		ops = 14
	}
	levels := []struct {
		name  string
		level seal.SecurityLevel
	}{
		{"none", seal.LevelNone},
		{"integrity", seal.LevelIntegrity},
		{"encrypted", seal.LevelEncrypted},
	}
	for _, lv := range levels {
		lv := lv
		t.Run(lv.name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range counterKinds {
				t.Run(kind.name, func(t *testing.T) {
					res, err := Run(Config{
						Level:        lv.level,
						Key:          testKey(),
						Immediate:    kind.immediate,
						Ops:          ops,
						PartialTails: true,
						Logf:         t.Logf,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Snapshots == 0 || res.Replays < res.Snapshots {
						t.Fatalf("suspicious run: %+v", res)
					}
					t.Logf("snapshots=%d replays=%d categories=%v", res.Snapshots, res.Replays, res.Categories)
				})
			}
		})
	}
}
