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
// syscalls and more decryption calls per byte. Each version recovers on
// the runtime its node would run, charging what that node would charge.

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
	// Syscalls counts the async syscalls the runtime charged during the
	// re-open (none on a native runtime).
	Syscalls uint64
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
	var out []RecoveryResult
	for _, mode := range []core.SecurityMode{core.ModeRocksDB, core.ModeSconeNoEnc, core.ModeSconeEnc} {
		runs := make([]RecoveryResult, 0, rounds)
		for i := 0; i < rounds; i++ {
			r, err := runRecovery(cfg, mode.Policy())
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		r := median(runs, func(r RecoveryResult) float64 { return float64(r.Duration) })
		r.Label = mode.String()
		out = append(out, r)
	}
	out[0].Label = "Native recovery"
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
	rt := enclave.NewRuntime(enclave.RuntimeConfig{Mode: p.Enclave})
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

	syscalls := rt.Stats().AsyncSyscalls
	start := time.Now()
	db2, err := lsm.Open(opt)
	if err != nil {
		return RecoveryResult{}, err
	}
	elapsed := time.Since(start)
	syscalls = rt.Stats().AsyncSyscalls - syscalls
	// Verify the recovery actually restored the data.
	if _, _, found, gerr := db2.Get(fmt.Appendf(nil, "k%010d", cfg.Entries-1), db2.LatestSeq()); gerr != nil || !found {
		db2.Close()
		return RecoveryResult{}, fmt.Errorf("bench: recovery lost data: found=%v err=%v", found, gerr)
	}
	db2.Close()
	return RecoveryResult{Duration: elapsed, LogBytes: logBytes, Syscalls: syscalls}, nil
}

// PrintTableI renders the table.
func PrintTableI(rs []RecoveryResult) string {
	var b strings.Builder
	b.WriteString("Table I: recovery overheads w.r.t. native recovery\n")
	fmt.Fprintf(&b, "  %-20s %12s %12s %10s %10s\n", "version", "time", "log size", "slowdown", "syscalls")
	if len(rs) == 0 {
		return b.String()
	}
	base := rs[0].Duration
	for _, r := range rs {
		slow := float64(r.Duration) / float64(base)
		fmt.Fprintf(&b, "  %-20s %12s %9.1fMiB %9.2fx %10d\n",
			r.Label, r.Duration.Round(time.Millisecond), float64(r.LogBytes)/(1<<20), slow, r.Syscalls)
	}
	return b.String()
}
