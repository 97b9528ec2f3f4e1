package durlog

import (
	"errors"
	"fmt"
	"path/filepath"

	"treaty/internal/seal"
)

// Replayed is what replaying a log file found.
type Replayed struct {
	// Entries is the kept prefix: chain-verified and, when a trusted value
	// was given, inside it.
	Entries []Entry
	// Dropped holds the intact records past the trusted stable value: an
	// unstabilized tail. They were forced but never rollback-protected, so
	// nobody was acknowledged on their strength; a client may still want
	// to know what they were (the coordinator presumes abort for them and
	// tells the participants).
	Dropped []Entry
	// Torn reports bytes after the last intact record that were judged a
	// crash artifact (see tolerableTear) — a detected-corruption event.
	Torn bool

	kept  int64          // length of the file prefix that holds Entries
	codec *seal.LogCodec // chained on the last kept entry
}

// Replay reads a log file without modifying it, verifying the hash chain,
// counter continuity and — when maxStable ≥ 0 — freshness against the
// trusted counter's stable value (pass -1 at LevelNone, where no freshness
// information exists):
//
//   - entries past maxStable are an unstabilized tail: Dropped;
//   - a log whose kept prefix ends before maxStable is missing
//     rollback-protected entries: ErrRollbackDetected;
//   - a decode failure is a torn tail where tolerableTear allows it and an
//     error (splicing, tampering) inside the protected region.
//
// A log whose counter has failed is not replayed at all: the counter's
// stable value is not the trusted one (a recovery query that found no
// quorum leaves it at 0), and replaying against it would class every
// acknowledged entry an unstabilized tail for Open to truncate.
func Replay(cfg Config, maxStable int64) (Replayed, error) {
	cfg.withDefaults()
	name := filepath.Base(cfg.Path)
	if cfg.Counter != nil {
		if err := cfg.Counter.Failed(); err != nil {
			return Replayed{}, fmt.Errorf("durlog: %s has no trusted value to replay against: %w", name, err)
		}
	}
	codec, err := cfg.newCodec()
	if err != nil {
		return Replayed{}, err
	}
	cfg.syscall()
	data, err := cfg.FS.ReadFile(cfg.Path)
	if err != nil {
		return Replayed{}, fmt.Errorf("durlog: reading %s: %w", cfg.Path, err)
	}
	var r Replayed
	last, keptCodec := uint64(0), *codec
	for off := 0; off < len(data); {
		// Each entry costs a (SCONE async) syscall to pull across the
		// enclave boundary for verification/decryption — small log entries
		// are the recovery worst case (§VIII-F).
		cfg.syscall()
		e, n, derr := codec.DecodeEntry(data[off:])
		if derr != nil {
			if !tolerableTear(derr, cfg.Level, last, maxStable) {
				return Replayed{}, fmt.Errorf("durlog: %s entry at %d: %w", name, off, derr)
			}
			r.Torn = true
			break
		}
		off += n
		entry := Entry{Kind: e.Kind, Counter: e.Counter, Payload: e.Payload}
		if len(r.Dropped) > 0 || (maxStable >= 0 && e.Counter > uint64(maxStable)) {
			r.Dropped = append(r.Dropped, entry)
			continue
		}
		r.Entries = append(r.Entries, entry)
		// Appends must chain on the last kept entry, not on the last one
		// decoded: whatever follows it gets truncated.
		last, r.kept, keptCodec = e.Counter, int64(off), *codec
	}
	r.codec = &keptCodec
	if maxStable > 0 && last < uint64(maxStable) {
		return Replayed{}, fmt.Errorf("%w: %s ends at counter %d, trusted value is %d",
			ErrRollbackDetected, name, last, maxStable)
	}
	return r, nil
}

// TrustedValue is the freshness bound to replay a log against: its
// counter's stable value at the secure levels, none (-1) at LevelNone and
// for an immediate counter, whose value is as old as the process.
func TrustedValue(level seal.SecurityLevel, ctr TrustedCounter) int64 {
	if _, volatile := ctr.(*immediateCounter); volatile || level < seal.LevelIntegrity {
		return -1
	}
	return int64(ctr.StableValue())
}

// tolerableTear decides whether a log decode failure after entry `last`
// may be treated as a crash-torn tail rather than tampering. Byte
// truncation is always a possible crash artifact (and if it cut into the
// rollback-protected region, the freshness check still flags it); other
// failures (bad checksum, broken chain) are tolerable only where the log
// is unprotected: at LevelNone, or at or past the trusted stable point
// (those entries were never acknowledged). A secure log replayed without a
// trusted value (maxStable < 0: nothing stabilizes after the write, so
// every record whose write returned may have been acknowledged — the
// counter replica's journal) has no such region: there only truncation is
// a tear.
func tolerableTear(derr error, level seal.SecurityLevel, last uint64, maxStable int64) bool {
	if errors.Is(derr, seal.ErrTruncated) || level == seal.LevelNone {
		return true
	}
	return maxStable >= 0 && last >= uint64(maxStable)
}
