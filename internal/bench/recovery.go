package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"treaty/internal/core"
	"treaty/internal/enclave"
	"treaty/internal/lsm"
	"treaty/internal/seal"
)

// Table I: recovery overheads. The paper constructs logs of 800 k small
// (~100 B) entries — 69 MiB plaintext / 91 MiB encrypted — and measures
// recovery time of Treaty w/o Enc (~1.5×) and Treaty w/ Enc (~2.0×)
// against native recovery. Small entries are the worst case: more
// syscalls and more decryption calls per byte.

// RecoveryConfig tunes the experiment.
type RecoveryConfig struct {
	// Entries is the log entry count (default 100_000; the paper uses
	// 800_000 — pass that for the full-scale run).
	Entries int
	// EntrySize is the approximate payload size (default 100 B).
	EntrySize int
}

// RecoveryResult is one measured version.
type RecoveryResult struct {
	// Label names the version.
	Label string
	// Duration is the time to re-open (replay + verify) the database.
	Duration time.Duration
	// LogBytes is the on-disk size of the replayed logs.
	LogBytes int64
}

// RunTableI builds identical workloads at the three log security levels
// and measures recovery time for each: the median of rounds write-then-
// reopen runs.
func RunTableI(cfg RecoveryConfig) ([]RecoveryResult, error) {
	if cfg.Entries == 0 {
		cfg.Entries = 100000
	}
	if cfg.EntrySize == 0 {
		cfg.EntrySize = 100
	}
	versions := []struct {
		label string
		mode  core.SecurityMode
	}{
		{"Native recovery", core.ModeRocksDB},
		{core.ModeSconeNoEnc.String(), core.ModeSconeNoEnc},
		{core.ModeSconeEnc.String(), core.ModeSconeEnc},
	}
	out := make([]RecoveryResult, 0, len(versions))
	for _, v := range versions {
		runs := make([]RecoveryResult, 0, rounds)
		for i := 0; i < rounds; i++ {
			r, err := runRecovery(cfg, v.mode.Policy())
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		r := median(runs, func(r RecoveryResult) float64 { return float64(r.Duration) })
		r.Label = v.label
		out = append(out, r)
	}
	return out, nil
}

// runRecovery writes the log and measures a cold re-open of the engine as
// a node of policy p would run it.
func runRecovery(cfg RecoveryConfig, p core.Policy) (RecoveryResult, error) {
	dir, err := os.MkdirTemp("", "treaty-recovery-")
	if err != nil {
		return RecoveryResult{}, err
	}
	defer os.RemoveAll(dir)

	key, err := seal.NewRandomKey()
	if err != nil {
		return RecoveryResult{}, err
	}
	// Treaty versions recover inside the enclave (boundary costs per
	// entry); the native baseline does not. Replay issues its per-entry
	// syscalls through SCONE's batched async interface, which amortizes
	// the cost below the interactive-path figure.
	var rt *enclave.Runtime
	if p.Enclave == enclave.ModeScone {
		costs := enclave.DefaultCosts()
		costs.AsyncSyscall = 700 * time.Nanosecond
		rt = enclave.NewRuntime(enclave.RuntimeConfig{Mode: p.Enclave, Costs: costs})
	}
	// A huge memtable keeps every entry in the WAL (recovery replays the
	// log, which is the measured path).
	opt := lsm.Options{
		Dir: dir, Level: p.Level, Key: key,
		MemTableSize: 1 << 40,
		SyncWAL:      false,
		Runtime:      rt,
	}
	db, err := lsm.Open(opt)
	if err != nil {
		return RecoveryResult{}, err
	}
	payload := []byte(strings.Repeat("x", cfg.EntrySize-16))
	for i := 0; i < cfg.Entries; i++ {
		b := lsm.NewBatch()
		b.Put(fmt.Appendf(nil, "k%010d", i), payload)
		if _, _, err := db.Apply(b); err != nil {
			db.Close()
			return RecoveryResult{}, err
		}
	}
	if err := db.Close(); err != nil {
		return RecoveryResult{}, err
	}

	var logBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return RecoveryResult{}, err
	}
	for _, de := range entries {
		if info, ierr := de.Info(); ierr == nil {
			logBytes += info.Size()
		}
	}

	start := time.Now()
	db2, err := lsm.Open(opt)
	if err != nil {
		return RecoveryResult{}, err
	}
	elapsed := time.Since(start)
	// Verify the recovery actually restored the data.
	if _, _, found, gerr := db2.Get(fmt.Appendf(nil, "k%010d", cfg.Entries-1), db2.LatestSeq()); gerr != nil || !found {
		db2.Close()
		return RecoveryResult{}, fmt.Errorf("bench: recovery lost data: found=%v err=%v", found, gerr)
	}
	db2.Close()
	return RecoveryResult{Duration: elapsed, LogBytes: logBytes}, nil
}

// PrintTableI renders the table.
func PrintTableI(rs []RecoveryResult) string {
	var b strings.Builder
	b.WriteString("Table I: recovery overheads w.r.t. native recovery\n")
	fmt.Fprintf(&b, "  %-20s %12s %12s %10s\n", "version", "time", "log size", "slowdown")
	if len(rs) == 0 {
		return b.String()
	}
	base := rs[0].Duration
	for _, r := range rs {
		slow := float64(r.Duration) / float64(base)
		fmt.Fprintf(&b, "  %-20s %12s %9.1fMiB %9.2fx\n",
			r.Label, r.Duration.Round(time.Millisecond), float64(r.LogBytes)/(1<<20), slow)
	}
	return b.String()
}
