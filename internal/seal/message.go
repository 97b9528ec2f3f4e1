package seal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Treaty's secure network message layout (§VII-A):
//
//	12 B IV ∥ 4 B pad (alignment) ∥ 80 B Tx metadata ∥ Tx data ∥ 16 B MAC
//
// Only the metadata and data are encrypted; the IV and MAC are in the
// clear, and any tampering with them causes the integrity check to fail.
// The metadata carries the coordinator node id, the transaction id
// (monotonically incremented at the coordinator) and an operation id that
// is unique per transaction request. The (node, tx, op) triple lets the
// recipient reject replayed or duplicated packets, giving at-most-once
// execution semantics for transaction operations.
const (
	// MetadataSize is the fixed size of the encrypted metadata block (80 B).
	MetadataSize = 80
	// padSize is the alignment pad between IV and ciphertext (4 B).
	padSize = 4
	// MsgOverhead is the total framing overhead of a secure message.
	MsgOverhead = IVSize + padSize + MetadataSize + MACSize
)

// ErrMalformedMessage indicates a secure message frame that cannot be parsed.
var ErrMalformedMessage = errors.New("seal: malformed secure message")

// MsgMetadata is the transaction metadata embedded (encrypted) in every
// secure message. The serialized form is exactly MetadataSize bytes.
type MsgMetadata struct {
	// NodeID identifies the coordinator node that created the transaction.
	NodeID uint64
	// TxID is the transaction id, monotonically incremented at the
	// coordinator; (NodeID, TxID) is globally unique.
	TxID uint64
	// OpID is unique per request within a transaction.
	OpID uint64
	// OpType is the operation kind (application-defined, e.g. Get/Put/
	// Prepare/Commit).
	OpType uint32
	// Flags carries protocol flags (e.g. response, error).
	Flags uint32
	// DataLen is the length of the transaction data section.
	DataLen uint32
	// KeyLen is the length of the key portion of the data section.
	KeyLen uint32
	// ValueLen is the length of the value portion of the data section.
	ValueLen uint32
	// Seq is a channel sequence number for freshness within a session.
	Seq uint64
	// Epoch stamps the shard-map epoch the sender routed under; a
	// participant whose current epoch differs rejects the operation with
	// a retriable "wrong epoch" error so the sender refetches the map.
	// Zero means unversioned, which only protocols without keys send
	// (counter, replication, status queries); a keyed operation always
	// carries its view's epoch, so a participant rejects one stamped 0.
	// The field occupies previously-reserved metadata bytes.
	Epoch uint64
}

const metaEncodedLen = 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 8 + 8 // 60 B used, rest reserved

// encode serializes m into a MetadataSize-byte block (reserved bytes zero).
func (m *MsgMetadata) encode(dst []byte) {
	_ = dst[MetadataSize-1]
	binary.LittleEndian.PutUint64(dst[0:], m.NodeID)
	binary.LittleEndian.PutUint64(dst[8:], m.TxID)
	binary.LittleEndian.PutUint64(dst[16:], m.OpID)
	binary.LittleEndian.PutUint32(dst[24:], m.OpType)
	binary.LittleEndian.PutUint32(dst[28:], m.Flags)
	binary.LittleEndian.PutUint32(dst[32:], m.DataLen)
	binary.LittleEndian.PutUint32(dst[36:], m.KeyLen)
	binary.LittleEndian.PutUint32(dst[40:], m.ValueLen)
	binary.LittleEndian.PutUint64(dst[44:], m.Seq)
	binary.LittleEndian.PutUint64(dst[52:], m.Epoch)
	for i := metaEncodedLen; i < MetadataSize; i++ {
		dst[i] = 0
	}
}

// decode deserializes m from a MetadataSize-byte block.
func (m *MsgMetadata) decode(src []byte) error {
	if len(src) < MetadataSize {
		return ErrMalformedMessage
	}
	m.NodeID = binary.LittleEndian.Uint64(src[0:])
	m.TxID = binary.LittleEndian.Uint64(src[8:])
	m.OpID = binary.LittleEndian.Uint64(src[16:])
	m.OpType = binary.LittleEndian.Uint32(src[24:])
	m.Flags = binary.LittleEndian.Uint32(src[28:])
	m.DataLen = binary.LittleEndian.Uint32(src[32:])
	m.KeyLen = binary.LittleEndian.Uint32(src[36:])
	m.ValueLen = binary.LittleEndian.Uint32(src[40:])
	m.Seq = binary.LittleEndian.Uint64(src[44:])
	m.Epoch = binary.LittleEndian.Uint64(src[52:])
	return nil
}

// EncodePlain serializes m into dst, which must be at least MetadataSize
// bytes. Used by the insecure ("w/o Enc") wire format ablation.
func (m *MsgMetadata) EncodePlain(dst []byte) { m.encode(dst) }

// DecodePlain deserializes m from src (at least MetadataSize bytes).
func (m *MsgMetadata) DecodePlain(src []byte) error { return m.decode(src) }

// MsgCodec seals and opens Treaty secure messages under the cluster
// network key. It is safe for concurrent use.
type MsgCodec struct {
	cipher *Cipher
}

// NewMsgCodec creates a codec for the given network key.
func NewMsgCodec(networkKey Key) (*MsgCodec, error) {
	c, err := NewCipher(DeriveKey(networkKey, "treaty/network"))
	if err != nil {
		return nil, fmt.Errorf("seal: creating message codec: %w", err)
	}
	return &MsgCodec{cipher: c}, nil
}

// SealMessage constructs the secure wire format for metadata md and payload
// data. The returned buffer is IV ∥ pad ∥ Enc(metadata ∥ data) ∥ MAC.
func (mc *MsgCodec) SealMessage(md *MsgMetadata, data []byte) []byte {
	md.DataLen = uint32(len(data))
	plain := make([]byte, MetadataSize+len(data))
	md.encode(plain[:MetadataSize])
	copy(plain[MetadataSize:], data)

	nonce := mc.cipher.nextNonce()
	out := make([]byte, IVSize+padSize, MsgOverhead+len(data))
	copy(out, nonce[:])
	// The 4-byte pad is authenticated as associated data so it cannot be
	// altered in flight.
	return mc.cipher.aead.Seal(out, nonce[:], plain, out[IVSize:IVSize+padSize])
}

// msgScratch recycles the plaintext staging buffer SealMessageInto
// assembles metadata ∥ data in before encryption; the ciphertext goes to
// the caller's buffer, so the scratch never escapes.
var msgScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// SealMessageInto is SealMessage appending into dst (which must have
// MsgWireLen(len(data)) capacity remaining to avoid reallocation —
// callers size the wire frame once and seal directly into it). The
// returned slice is dst extended by
// exactly MsgWireLen(len(data)) bytes.
func (mc *MsgCodec) SealMessageInto(dst []byte, md *MsgMetadata, data []byte) []byte {
	md.DataLen = uint32(len(data))
	sp := msgScratch.Get().(*[]byte)
	plain := *sp
	if cap(plain) < MetadataSize+len(data) {
		plain = make([]byte, 0, MetadataSize+len(data))
	}
	plain = plain[:MetadataSize]
	md.encode(plain)
	plain = append(plain, data...)

	nonce := mc.cipher.nextNonce()
	base := len(dst)
	dst = append(dst, nonce[:]...)
	dst = append(dst, 0, 0, 0, 0) // authenticated alignment pad
	dst = mc.cipher.aead.Seal(dst, nonce[:], plain, dst[base+IVSize:base+IVSize+padSize])
	*sp = plain[:0]
	msgScratch.Put(sp)
	return dst
}

// OpenMessage verifies and decrypts a secure message, returning its
// metadata and payload. Returns ErrIntegrity on any tampering and
// ErrMalformedMessage if the frame is structurally invalid.
func (mc *MsgCodec) OpenMessage(wire []byte) (MsgMetadata, []byte, error) {
	var md MsgMetadata
	if len(wire) < MsgOverhead {
		return md, nil, ErrMalformedMessage
	}
	iv := wire[:IVSize]
	pad := wire[IVSize : IVSize+padSize]
	plain, err := mc.cipher.aead.Open(nil, iv, wire[IVSize+padSize:], pad)
	if err != nil {
		return md, nil, ErrIntegrity
	}
	if err := md.decode(plain); err != nil {
		return md, nil, err
	}
	data := plain[MetadataSize:]
	if int(md.DataLen) != len(data) {
		return md, nil, ErrMalformedMessage
	}
	return md, data, nil
}

// MsgWireLen returns the on-wire size of a secure message carrying a
// payload of length n.
func MsgWireLen(n int) int { return MsgOverhead + n }
