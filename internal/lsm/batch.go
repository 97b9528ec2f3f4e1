package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorruptBatch indicates a write batch that cannot be decoded.
var ErrCorruptBatch = errors.New("lsm: corrupt write batch")

// Batch is an ordered set of writes applied atomically, kept in its
// encoded form (every append rewrites the count). That form is what the
// WAL logs and a slot-migration chunk carries: count(4) ∥ records, each
// kind(1) ∥ klen(varint) ∥ key ∥ [vlen(varint) ∥ value].
// A transaction buffers its uncommitted writes in one (§VII-D's "stream
// of bytes"): later records of a key win when the batch is applied.
type Batch struct {
	buf []byte
}

// NewBatch creates an empty batch.
func NewBatch() *Batch {
	return &Batch{buf: make([]byte, 4)}
}

// Put appends a set record and returns the offset of value in Encoded.
func (b *Batch) Put(key, value []byte) int {
	b.buf = append(b.buf, byte(KindSet))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = append(b.buf, key...)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, value...)
	b.setCount(b.Count() + 1)
	return len(b.buf) - len(value)
}

// Delete appends a tombstone record.
func (b *Batch) Delete(key []byte) {
	b.buf = append(b.buf, byte(KindDelete))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = append(b.buf, key...)
	b.setCount(b.Count() + 1)
}

func (b *Batch) setCount(n int) { binary.LittleEndian.PutUint32(b.buf, uint32(n)) }

// Count returns the number of records.
func (b *Batch) Count() int { return int(binary.LittleEndian.Uint32(b.buf)) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:4]
	b.setCount(0)
}

// Encoded returns the batch's encoded bytes, valid until the next Put,
// Delete or Reset.
func (b *Batch) Encoded() []byte { return b.buf }

// Each calls fn for every record in the batch, in order. Used by the 2PC
// layer to re-acquire a recovered prepare's locks and to put a migration
// chunk behind its slot purge.
func (b *Batch) Each(fn func(kind RecordKind, key, value []byte) error) error {
	return eachRecord(b.Encoded(), fn)
}

// eachRecord walks an encoded batch, calling fn (when non-nil) for each
// record in order; it stops at the first malformed record or error from
// fn. Every record takes at least two bytes, so a count the payload
// cannot hold fails before any record is read: a batch can arrive off
// the wire (a migration chunk).
func eachRecord(data []byte, fn func(kind RecordKind, key, value []byte) error) error {
	if len(data) < 4 {
		return ErrCorruptBatch
	}
	count := binary.LittleEndian.Uint32(data[:4])
	if uint64(count) > uint64(len(data)-4)/2 {
		return fmt.Errorf("%w: %d records in %d bytes", ErrCorruptBatch, count, len(data))
	}
	off := 4
	for i := uint32(0); i < count; i++ {
		if off >= len(data) {
			return ErrCorruptBatch
		}
		kind := RecordKind(data[off])
		off++
		klen, n := binary.Uvarint(data[off:])
		if n <= 0 || klen > uint64(len(data)-off-n) {
			return ErrCorruptBatch
		}
		off += n
		key := data[off : off+int(klen)]
		off += int(klen)
		var value []byte
		if kind == KindSet {
			vlen, n := binary.Uvarint(data[off:])
			if n <= 0 || vlen > uint64(len(data)-off-n) {
				return ErrCorruptBatch
			}
			off += n
			value = data[off : off+int(vlen)]
			off += int(vlen)
		} else if kind != KindDelete {
			return fmt.Errorf("%w: unknown kind %d", ErrCorruptBatch, kind)
		}
		if fn != nil {
			if err := fn(kind, key, value); err != nil {
				return err
			}
		}
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptBatch, len(data)-off)
	}
	return nil
}

// viewBatch is the Batch encoded as data, validated, sharing data.
func viewBatch(data []byte) (*Batch, error) {
	if err := eachRecord(data, nil); err != nil {
		return nil, err
	}
	return &Batch{buf: data}, nil
}

// DecodeBatch rebuilds a Batch from its validated encoded form, on a copy
// of data.
func DecodeBatch(data []byte) (*Batch, error) {
	return viewBatch(bytes.Clone(data))
}
