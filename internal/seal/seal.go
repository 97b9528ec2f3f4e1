// Package seal provides the cryptographic primitives Treaty uses to extend
// enclave trust to untrusted storage and network: AES-256-GCM encryption,
// the secure on-wire message layout from the paper (§VII-A), authenticated
// log-entry framing with hash chaining, and key handling.
//
// All data that leaves the (simulated) enclave — values placed in host
// memory, WAL/Clog/MANIFEST entries, SSTable blocks, and RPC messages — is
// protected by this package. Integrity violations surface as
// ErrIntegrity; they are detected, never silently ignored.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Sizes of the fixed fields in Treaty's secure formats.
const (
	// KeySize is the AES-256 key size in bytes.
	KeySize = 32
	// IVSize is the GCM nonce size (12 B per the paper's message layout).
	IVSize = 12
	// MACSize is the GCM authentication tag size (16 B).
	MACSize = 16
	// HashSize is the SHA-256 digest size used for integrity hashes.
	HashSize = sha256.Size
)

// Errors returned by this package.
var (
	// ErrIntegrity indicates an authentication/integrity check failed:
	// the ciphertext, MAC, IV, or associated data was tampered with.
	ErrIntegrity = errors.New("seal: integrity check failed")
	// ErrKeySize indicates a key of the wrong length was supplied.
	ErrKeySize = errors.New("seal: key must be 32 bytes")
	// ErrTruncated indicates a sealed buffer is too short to be valid.
	ErrTruncated = errors.New("seal: sealed data truncated")
)

// Key is a 256-bit symmetric key. Keys are provisioned to enclaves by the
// CAS after successful attestation and never leave enclave memory in
// plaintext.
type Key [KeySize]byte

// NewRandomKey generates a fresh key from the system CSPRNG.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("seal: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key. b must be exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, ErrKeySize
	}
	copy(k[:], b)
	return k, nil
}

// DeriveKey deterministically derives a sub-key from k for the given label
// (e.g. "wal", "sstable", "network"). Derivation is HMAC-SHA256(k, label),
// giving independent keys per subsystem from one provisioned master key.
func DeriveKey(k Key, label string) Key {
	return Key(MAC(k, []byte(label)))
}

// MAC is HMAC-SHA256 under k over the concatenation of parts: the one
// signature of every signed statement (the shard map, the promotion
// certificate, a replication ship proof, a quote).
func MAC(k Key, parts ...[]byte) [HashSize]byte {
	mac := hmac.New(sha256.New, k[:])
	for _, p := range parts {
		mac.Write(p)
	}
	var out [HashSize]byte
	mac.Sum(out[:0])
	return out
}

// VerifyMAC reports whether sig is MAC(k, parts...), in constant time.
func VerifyMAC(k Key, sig [HashSize]byte, parts ...[]byte) bool {
	want := MAC(k, parts...)
	return hmac.Equal(want[:], sig[:])
}

// Hash computes the SHA-256 digest of data.
func Hash(data []byte) [HashSize]byte {
	return sha256.Sum256(data)
}

// HashConcat computes SHA-256 over the concatenation of the given slices
// without allocating an intermediate buffer.
func HashConcat(parts ...[]byte) [HashSize]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [HashSize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Cipher encrypts and authenticates data under a single key using
// AES-256-GCM. It is safe for concurrent use. Nonces are generated from a
// random 4-byte prefix plus a 64-bit atomic counter, guaranteeing uniqueness
// for up to 2^64 seals per Cipher without coordination.
type Cipher struct {
	aead        cipher.AEAD
	noncePrefix [4]byte
	nonceCtr    atomic.Uint64
}

// NewCipher constructs a Cipher from key.
func NewCipher(key Key) (*Cipher, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("seal: creating AES cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: creating GCM: %w", err)
	}
	c := &Cipher{aead: aead}
	if _, err := rand.Read(c.noncePrefix[:]); err != nil {
		return nil, fmt.Errorf("seal: generating nonce prefix: %w", err)
	}
	return c, nil
}

// nextNonce produces a unique 12-byte nonce.
func (c *Cipher) nextNonce() [IVSize]byte {
	var n [IVSize]byte
	copy(n[:4], c.noncePrefix[:])
	binary.LittleEndian.PutUint64(n[4:], c.nonceCtr.Add(1))
	return n
}

// Seal encrypts plaintext with the given additional authenticated data and
// returns IV ∥ ciphertext ∥ MAC. The output is self-contained: Open needs
// only the same key and aad.
func (c *Cipher) Seal(plaintext, aad []byte) []byte {
	nonce := c.nextNonce()
	out := make([]byte, IVSize, IVSize+len(plaintext)+MACSize)
	copy(out, nonce[:])
	return c.aead.Seal(out, nonce[:], plaintext, aad)
}

// SealTo is like Seal but appends to dst, returning the extended slice.
// Useful for arena-style buffers that avoid per-record allocation.
func (c *Cipher) SealTo(dst, plaintext, aad []byte) []byte {
	nonce := c.nextNonce()
	dst = append(dst, nonce[:]...)
	return c.aead.Seal(dst, nonce[:], plaintext, aad)
}

// Open authenticates and decrypts a buffer produced by Seal. It returns
// ErrIntegrity if the data or aad was modified, and ErrTruncated if the
// buffer cannot possibly contain a valid sealed record.
func (c *Cipher) Open(sealed, aad []byte) ([]byte, error) {
	if len(sealed) < IVSize+MACSize {
		return nil, ErrTruncated
	}
	plaintext, err := c.aead.Open(nil, sealed[:IVSize], sealed[IVSize:], aad)
	if err != nil {
		return nil, ErrIntegrity
	}
	return plaintext, nil
}

// SealedLen returns the sealed size of a plaintext of length n.
func SealedLen(n int) int { return IVSize + n + MACSize }

// PlainLen returns the plaintext size of a sealed buffer of length n, or -1
// if n is too small to be a valid sealed buffer.
func PlainLen(n int) int {
	if n < IVSize+MACSize {
		return -1
	}
	return n - IVSize - MACSize
}
