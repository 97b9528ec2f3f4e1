// Package enclave simulates a trusted execution environment (Intel SGX
// under SCONE in the paper). Real SGX hardware is unavailable in this
// reproduction, so the package provides a functional substitute:
//
//   - Platforms with a simulated hardware root key, enclaves with code
//     measurements, sealing (AES-256-GCM under a measurement-bound key),
//     and attestation quotes (HMAC by the platform key, endorsed by the
//     simulated IAS in package attest).
//   - An explicit cost model that charges the TEE overheads the paper's
//     evaluation isolates: world switches for synchronous syscalls, the
//     cheaper SCONE-style asynchronous syscalls, OCALLs, and EPC paging.
//     Costs are applied as calibrated busy-waits so benchmarks measure
//     real elapsed time with the right relative shape (native vs SCONE).
//   - EPC accounting: enclave-resident allocations beyond the EPC budget
//     trigger paging penalties, reproducing why Treaty keeps values and
//     network buffers in host memory (§VII-D).
//
// Protocol logic (attestation, sealing, key release) is identical to the
// hardware flow; only the trust anchor is simulated.
package enclave

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"treaty/internal/seal"
)

// Mode selects how the runtime charges TEE costs.
type Mode int

const (
	// ModeNative runs without any TEE: no costs, no protection. This is
	// the "native" baseline in the paper's evaluation.
	ModeNative Mode = iota + 1
	// ModeScone simulates execution inside an SGX enclave under SCONE:
	// asynchronous syscalls, world switches on blocking operations, and
	// EPC paging penalties.
	ModeScone
)

// String returns the mode's evaluation label.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeScone:
		return "scone"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors returned by this package.
var (
	// ErrSealedTampered indicates sealed data failed authentication.
	ErrSealedTampered = errors.New("enclave: sealed data tampered")
	// ErrQuoteInvalid indicates a quote failed verification.
	ErrQuoteInvalid = errors.New("enclave: quote verification failed")
	// ErrEPCExhausted indicates an enclave allocation exceeded the hard
	// EPC + paging budget.
	ErrEPCExhausted = errors.New("enclave: EPC exhausted")
)

// Measurement identifies the code and initial data of an enclave
// (MRENCLAVE in SGX terms).
type Measurement [seal.HashSize]byte

// MeasureCode produces the measurement for an enclave binary identity.
func MeasureCode(identity string) Measurement {
	return Measurement(seal.Hash([]byte("enclave-code:" + identity)))
}

// Platform models one physical machine with TEE support. It holds the
// simulated hardware root key used for sealing and local quotes. Every
// node in a Treaty cluster runs on its own Platform.
type Platform struct {
	// Name identifies the machine (host name).
	Name string

	rootKey  seal.Key
	mu       sync.Mutex
	enclaves []*Enclave
}

// NewPlatform creates a machine with a fresh simulated hardware key.
func NewPlatform(name string) (*Platform, error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return nil, fmt.Errorf("enclave: creating platform: %w", err)
	}
	return &Platform{Name: name, rootKey: key}, nil
}

// RootKey exposes the platform key for the simulated IAS registry. On real
// hardware this never leaves the CPU; the attest package plays the role of
// the manufacturer that knows it.
func (p *Platform) RootKey() seal.Key { return p.rootKey }

// Launch creates an enclave on this platform running the code identified
// by identity, with the given runtime configuration.
func (p *Platform) Launch(identity string, cfg RuntimeConfig) (*Enclave, error) {
	sealKey := seal.DeriveKey(p.rootKey, "seal/"+identity)
	cipher, err := seal.NewCipher(sealKey)
	if err != nil {
		return nil, fmt.Errorf("enclave: launching %q: %w", identity, err)
	}
	e := &Enclave{
		platform:    p,
		measurement: MeasureCode(identity),
		sealKey:     sealKey,
		sealCipher:  cipher,
		runtime:     NewRuntime(cfg),
	}
	p.mu.Lock()
	p.enclaves = append(p.enclaves, e)
	p.mu.Unlock()
	return e, nil
}

// Enclave is one running enclave instance: an isolated memory region whose
// code identity is captured by a measurement. State kept "inside" the
// enclave (Go heap owned by enclave components) is trusted; everything
// else — files, network, host-memory buffers — is not.
type Enclave struct {
	platform    *Platform
	measurement Measurement
	sealKey     seal.Key
	sealCipher  *seal.Cipher
	runtime     *Runtime
}

// Runtime returns the enclave's cost-model runtime.
func (e *Enclave) Runtime() *Runtime { return e.runtime }

// Seal encrypts data under the enclave's sealing key (bound to platform
// and measurement), for storage on untrusted media. Matches SGX
// MRENCLAVE-policy sealing.
func (e *Enclave) Seal(data []byte) []byte {
	return e.sealCipher.Seal(data, e.measurement[:])
}

// Unseal authenticates and decrypts sealed data. Data sealed by a
// different enclave identity or platform fails with ErrSealedTampered.
func (e *Enclave) Unseal(sealed []byte) ([]byte, error) {
	plain, err := e.sealCipher.Open(sealed, e.measurement[:])
	if err != nil {
		return nil, ErrSealedTampered
	}
	return plain, nil
}

// SealingKey derives a sub-key of the enclave's sealing key for sealed
// state that is framed by a codec of its own (the counter replica's
// journal) rather than as one Seal blob. Like Seal it is bound to platform
// and measurement: another platform or code identity derives another key.
func (e *Enclave) SealingKey(label string) seal.Key {
	return seal.DeriveKey(e.sealKey, "derived/"+label)
}

// Quote produces an attestation quote over reportData: a statement, keyed
// by the platform root key, that an enclave with this measurement is
// running on this platform. The simulated IAS verifies it via the
// platform registry.
func (e *Enclave) Quote(reportData []byte) Quote {
	q := Quote{
		Measurement: e.measurement,
		Platform:    e.platform.Name,
	}
	copy(q.ReportData[:], reportData)
	q.Signature = seal.MAC(e.platform.rootKey, quoteBody(&q)...)
	return q
}

// Quote is a simulated SGX quote: measurement + user report data, signed
// by the platform hardware key.
type Quote struct {
	// Measurement is the attested enclave's code measurement.
	Measurement Measurement
	// Platform names the machine the quote was produced on.
	Platform string
	// ReportData is 64 bytes of caller data bound into the quote
	// (typically a public key or nonce).
	ReportData [64]byte
	// Signature authenticates the quote under the platform root key.
	Signature [seal.HashSize]byte
}

// quoteBody is what a quote's signature covers.
func quoteBody(q *Quote) [][]byte {
	return [][]byte{q.Measurement[:], []byte(q.Platform), q.ReportData[:]}
}

// VerifyQuote checks q against the given platform root key. The attest
// package's simulated IAS holds the registry of platform keys.
func VerifyQuote(rootKey seal.Key, q *Quote) error {
	if !seal.VerifyMAC(rootKey, q.Signature, quoteBody(q)...) {
		return ErrQuoteInvalid
	}
	return nil
}

// Nonce returns 64 bytes of fresh randomness suitable for quote report
// data (challenge-response freshness).
func Nonce() ([64]byte, error) {
	var n [64]byte
	if _, err := rand.Read(n[:]); err != nil {
		return n, fmt.Errorf("enclave: generating nonce: %w", err)
	}
	return n, nil
}

// monotonicTick is a process-wide monotonic source used to replace
// rdtsc()-style timestamps inside the enclave without an OCALL (§VII-A:
// "we eliminate rdtsc() calls ... replacing the call with a monotonic
// counter").
var monotonicTick atomic.Uint64

// Tick returns a process-wide monotonically increasing value.
func Tick() uint64 { return monotonicTick.Add(1) }

// EncodeUint64 is a tiny helper for building report data from integers.
func EncodeUint64(vals ...uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}
