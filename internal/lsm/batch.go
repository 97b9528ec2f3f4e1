package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorruptBatch indicates a write batch that cannot be decoded.
var ErrCorruptBatch = errors.New("lsm: corrupt write batch")

// Batch is an ordered set of writes applied atomically. The encoded form
// is what the WAL logs: count(4) ∥ records, each kind(1) ∥ klen(varint) ∥
// key ∥ [vlen(varint) ∥ value].
type Batch struct {
	buf   []byte
	count uint32
}

// NewBatch creates an empty batch.
func NewBatch() *Batch {
	return &Batch{buf: make([]byte, 4)}
}

// Put appends a set record.
func (b *Batch) Put(key, value []byte) {
	b.buf = append(b.buf, byte(KindSet))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = append(b.buf, key...)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, value...)
	b.count++
}

// Grow makes room for that many more records, whose keys and values
// total n bytes, so that filling the batch never reallocates it.
func (b *Batch) Grow(records, n int) {
	b.buf = slices.Grow(b.buf, n+records*(1+2*binary.MaxVarintLen32))
}

// Delete appends a tombstone record.
func (b *Batch) Delete(key []byte) {
	b.buf = append(b.buf, byte(KindDelete))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = append(b.buf, key...)
	b.count++
}

// Count returns the number of records.
func (b *Batch) Count() int { return int(b.count) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.buf = b.buf[:4]
	b.count = 0
}

// encode finalizes the batch bytes.
func (b *Batch) encode() []byte {
	binary.LittleEndian.PutUint32(b.buf[:4], b.count)
	return b.buf
}

// Each calls fn for every record in the batch, in order. Used by the 2PC
// layer to re-acquire locks for recovered prepared transactions.
func (b *Batch) Each(fn func(kind RecordKind, key, value []byte) error) error {
	recs, err := decodeBatch(b.encode())
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := fn(r.kind, r.key, r.value); err != nil {
			return err
		}
	}
	return nil
}

// batchRecord is one decoded batch record.
type batchRecord struct {
	kind  RecordKind
	key   []byte
	value []byte
}

// decodeBatch parses an encoded batch.
func decodeBatch(data []byte) ([]batchRecord, error) {
	if len(data) < 4 {
		return nil, ErrCorruptBatch
	}
	count := binary.LittleEndian.Uint32(data[:4])
	recs := make([]batchRecord, 0, count)
	off := 4
	for i := uint32(0); i < count; i++ {
		if off >= len(data) {
			return nil, ErrCorruptBatch
		}
		kind := RecordKind(data[off])
		off++
		klen, n := binary.Uvarint(data[off:])
		if n <= 0 || off+n+int(klen) > len(data) {
			return nil, ErrCorruptBatch
		}
		off += n
		key := data[off : off+int(klen)]
		off += int(klen)
		var value []byte
		if kind == KindSet {
			vlen, n := binary.Uvarint(data[off:])
			if n <= 0 || off+n+int(vlen) > len(data) {
				return nil, ErrCorruptBatch
			}
			off += n
			value = data[off : off+int(vlen)]
			off += int(vlen)
		} else if kind != KindDelete {
			return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptBatch, kind)
		}
		recs = append(recs, batchRecord{kind: kind, key: key, value: value})
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptBatch, len(data)-off)
	}
	return recs, nil
}

// batchFromEncoded rebuilds a Batch from its validated encoded form, on
// a copy of data.
func batchFromEncoded(data []byte) (*Batch, error) {
	recs, err := decodeBatch(data)
	if err != nil {
		return nil, err
	}
	return &Batch{buf: bytes.Clone(data), count: uint32(len(recs))}, nil
}

// applyToMemTable inserts the batch's records starting at baseSeq.
func applyToMemTable(m *memTable, baseSeq uint64, recs []batchRecord) {
	for i, r := range recs {
		m.add(baseSeq+uint64(i), r.kind, r.key, r.value)
	}
}
