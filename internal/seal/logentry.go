package seal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// SecurityLevel selects how much protection the storage and network codecs
// apply. The levels correspond to the system versions evaluated in the
// paper: a native RocksDB-like build (LevelNone), Treaty without encryption
// (LevelIntegrity: authenticated but plaintext), and full Treaty
// (LevelEncrypted: confidentiality + integrity + freshness).
type SecurityLevel int

const (
	// LevelNone applies only CRC32 checksums, like stock RocksDB.
	LevelNone SecurityLevel = iota + 1
	// LevelIntegrity adds SHA-256 hash chains and counter binding but
	// stores payloads in plaintext (Treaty w/o Enc).
	LevelIntegrity
	// LevelEncrypted additionally encrypts payloads with AES-256-GCM
	// (Treaty w/ Enc).
	LevelEncrypted
)

// String returns the human-readable name of the level.
func (l SecurityLevel) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelIntegrity:
		return "integrity"
	case LevelEncrypted:
		return "encrypted"
	default:
		return fmt.Sprintf("SecurityLevel(%d)", int(l))
	}
}

// Log-entry errors.
var (
	// ErrBadChecksum indicates a CRC mismatch on a LevelNone entry.
	ErrBadChecksum = errors.New("seal: log entry checksum mismatch")
	// ErrChainBroken indicates the hash chain was violated: an entry was
	// deleted, reordered, or tampered with (state-continuity violation).
	ErrChainBroken = errors.New("seal: log hash chain broken")
	// ErrCounterGap indicates log entry counter values are not
	// deterministically increasing — a rollback or splice attack.
	ErrCounterGap = errors.New("seal: log counter discontinuity")
)

// LogEntry is one authenticated record in a Treaty log file (WAL, Clog, or
// MANIFEST). Every entry carries a unique, monotonic, deterministically
// increasing trusted-counter value; recovery uses the counter and the hash
// chain to detect rollback and splicing (§VI).
type LogEntry struct {
	// Counter is the trusted-counter value bound to this entry.
	Counter uint64
	// Kind is an application tag (e.g. WAL put batch, Clog prepare).
	Kind uint8
	// Payload is the record body (decrypted if the log is encrypted).
	Payload []byte
}

// logEntryHeader is the fixed on-disk prefix of an entry:
// counter(8) kind(1) payloadLen(4).
const logEntryHeaderLen = 8 + 1 + 4

// LogCodec frames, authenticates, and (optionally) encrypts log entries.
// Entries are hash-chained: entry i's trailer is
// SHA-256(prevHash ∥ header ∥ storedPayload); the chain head is the file's
// genesis hash. At LevelNone the trailer is a CRC32 of the header+payload
// and no chaining is performed, matching a native RocksDB-style WAL.
//
// LogCodec is not safe for concurrent use; callers serialize appends (log
// files are written sequentially, §VI).
type LogCodec struct {
	level    SecurityLevel
	cipher   *Cipher
	prevHash [HashSize]byte
	nextCtr  uint64
}

// NewLogCodec creates a codec for one log file. key is ignored at levels
// below LevelEncrypted. genesis seeds the hash chain (use the file's
// identity so chains from different files are not interchangeable).
// firstCounter is the counter value expected for the first entry.
func NewLogCodec(level SecurityLevel, key Key, genesis string, firstCounter uint64) (*LogCodec, error) {
	lc := &LogCodec{
		level:    level,
		prevHash: Hash([]byte(genesis)),
		nextCtr:  firstCounter,
	}
	if level == LevelEncrypted {
		c, err := NewCipher(DeriveKey(key, "treaty/log/"+genesis))
		if err != nil {
			return nil, fmt.Errorf("seal: creating log cipher: %w", err)
		}
		lc.cipher = c
	}
	return lc, nil
}

// NextCounter returns the counter value the next appended entry will carry.
func (lc *LogCodec) NextCounter() uint64 { return lc.nextCtr }

// AppendEntry frames payload as the next log entry and appends the encoded
// bytes to dst, returning the extended slice and the entry's counter value.
// The counter advances deterministically by one per entry.
func (lc *LogCodec) AppendEntry(dst []byte, kind uint8, payload []byte) ([]byte, uint64) {
	ctr := lc.nextCtr
	lc.nextCtr++

	stored := payload
	if lc.level == LevelEncrypted {
		stored = lc.cipher.Seal(payload, nil)
	}

	var hdr [logEntryHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:], ctr)
	hdr[8] = kind
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(stored)))

	start := len(dst)
	dst = append(dst, hdr[:]...)
	dst = append(dst, stored...)

	switch lc.level {
	case LevelNone:
		var tr [4]byte
		binary.LittleEndian.PutUint32(tr[:], crc32.ChecksumIEEE(dst[start:]))
		dst = append(dst, tr[:]...)
	default:
		h := HashConcat(lc.prevHash[:], hdr[:], stored)
		lc.prevHash = h
		dst = append(dst, h[:]...)
	}
	return dst, ctr
}

// trailerLen returns the per-entry trailer size for the codec's level.
func (lc *LogCodec) trailerLen() int {
	if lc.level == LevelNone {
		return 4
	}
	return HashSize
}

// DecodeEntry parses and verifies the next entry from buf, which must begin
// at an entry boundary. It returns the entry, the number of bytes consumed,
// and an error. Verification enforces the checksum or hash chain and the
// deterministic counter sequence; violations return ErrBadChecksum,
// ErrChainBroken, or ErrCounterGap respectively.
func (lc *LogCodec) DecodeEntry(buf []byte) (LogEntry, int, error) {
	var e LogEntry
	if len(buf) < logEntryHeaderLen {
		return e, 0, ErrTruncated
	}
	ctr := binary.LittleEndian.Uint64(buf[0:])
	kind := buf[8]
	plen := int(binary.LittleEndian.Uint32(buf[9:]))
	total := logEntryHeaderLen + plen + lc.trailerLen()
	if plen < 0 || len(buf) < total {
		return e, 0, ErrTruncated
	}
	hdr := buf[:logEntryHeaderLen]
	stored := buf[logEntryHeaderLen : logEntryHeaderLen+plen]
	trailer := buf[logEntryHeaderLen+plen : total]

	switch lc.level {
	case LevelNone:
		if crc32.ChecksumIEEE(buf[:logEntryHeaderLen+plen]) != binary.LittleEndian.Uint32(trailer) {
			return e, 0, ErrBadChecksum
		}
	default:
		h := HashConcat(lc.prevHash[:], hdr, stored)
		var got [HashSize]byte
		copy(got[:], trailer)
		if h != got {
			return e, 0, ErrChainBroken
		}
		if ctr != lc.nextCtr {
			return e, 0, fmt.Errorf("%w: want %d, got %d", ErrCounterGap, lc.nextCtr, ctr)
		}
		lc.prevHash = h
	}
	lc.nextCtr = ctr + 1

	payload := stored
	if lc.level == LevelEncrypted {
		p, err := lc.cipher.Open(stored, nil)
		if err != nil {
			return e, 0, err
		}
		payload = p
	} else {
		payload = make([]byte, plen)
		copy(payload, stored)
	}
	e = LogEntry{Counter: ctr, Kind: kind, Payload: payload}
	return e, total, nil
}

// EncodedLen returns the framed size of a payload of length n at the given
// level (including encryption expansion and trailer).
func EncodedLen(level SecurityLevel, n int) int {
	stored := n
	if level == LevelEncrypted {
		stored = SealedLen(n)
	}
	trailer := HashSize
	if level == LevelNone {
		trailer = 4
	}
	return logEntryHeaderLen + stored + trailer
}
