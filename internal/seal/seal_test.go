package seal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustKey(t *testing.T) Key {
	t.Helper()
	k, err := NewRandomKey()
	if err != nil {
		t.Fatalf("NewRandomKey: %v", err)
	}
	return k
}

func mustCipher(t *testing.T) *Cipher {
	t.Helper()
	c, err := NewCipher(mustKey(t))
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	return c
}

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 16)); !errors.Is(err, ErrKeySize) {
		t.Errorf("short key: got %v, want ErrKeySize", err)
	}
	b := make([]byte, KeySize)
	for i := range b {
		b[i] = byte(i)
	}
	k, err := KeyFromBytes(b)
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	if !bytes.Equal(k[:], b) {
		t.Error("key bytes not copied")
	}
}

func TestDeriveKeyDistinctLabels(t *testing.T) {
	k := mustKey(t)
	a := DeriveKey(k, "wal")
	b := DeriveKey(k, "sstable")
	if a == b {
		t.Error("distinct labels must derive distinct keys")
	}
	if a != DeriveKey(k, "wal") {
		t.Error("derivation must be deterministic")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	c := mustCipher(t)
	cases := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("treaty"), 100)}
	for _, plain := range cases {
		sealed := c.Seal(plain, []byte("aad"))
		got, err := c.Open(sealed, []byte("aad"))
		if err != nil {
			t.Fatalf("Open(%d bytes): %v", len(plain), err)
		}
		if !bytes.Equal(got, plain) {
			t.Errorf("round trip mismatch for %d-byte plaintext", len(plain))
		}
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	c := mustCipher(t)
	sealed := c.Seal([]byte("secret payload"), nil)
	for i := range sealed {
		mutated := bytes.Clone(sealed)
		mutated[i] ^= 0x01
		if _, err := c.Open(mutated, nil); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flipping byte %d: got %v, want ErrIntegrity", i, err)
		}
	}
}

func TestOpenDetectsWrongAAD(t *testing.T) {
	c := mustCipher(t)
	sealed := c.Seal([]byte("payload"), []byte("context-a"))
	if _, err := c.Open(sealed, []byte("context-b")); !errors.Is(err, ErrIntegrity) {
		t.Errorf("wrong aad: got %v, want ErrIntegrity", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	c := mustCipher(t)
	if _, err := c.Open(make([]byte, IVSize+MACSize-1), nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestOpenWrongKey(t *testing.T) {
	c1 := mustCipher(t)
	c2 := mustCipher(t)
	sealed := c1.Seal([]byte("payload"), nil)
	if _, err := c2.Open(sealed, nil); !errors.Is(err, ErrIntegrity) {
		t.Errorf("wrong key: got %v, want ErrIntegrity", err)
	}
}

func TestSealToAppends(t *testing.T) {
	c := mustCipher(t)
	prefix := []byte("prefix")
	out := c.SealTo(bytes.Clone(prefix), []byte("data"), nil)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("SealTo must preserve dst prefix")
	}
	got, err := c.Open(out[len(prefix):], nil)
	if err != nil || string(got) != "data" {
		t.Fatalf("Open after SealTo: %q, %v", got, err)
	}
}

func TestNonceUniqueness(t *testing.T) {
	c := mustCipher(t)
	seen := make(map[[IVSize]byte]bool, 1000)
	for i := 0; i < 1000; i++ {
		n := c.nextNonce()
		if seen[n] {
			t.Fatalf("nonce %x repeated at iteration %d", n, i)
		}
		seen[n] = true
	}
}

func TestSealedLenPlainLen(t *testing.T) {
	c := mustCipher(t)
	for _, n := range []int{0, 1, 100, 4096} {
		sealed := c.Seal(make([]byte, n), nil)
		if got := SealedLen(n); got != len(sealed) {
			t.Errorf("SealedLen(%d) = %d, want %d", n, got, len(sealed))
		}
		if got := PlainLen(len(sealed)); got != n {
			t.Errorf("PlainLen(%d) = %d, want %d", len(sealed), got, n)
		}
	}
	if PlainLen(IVSize+MACSize-1) != -1 {
		t.Error("PlainLen of impossible size must be -1")
	}
}

func TestSealOpenProperty(t *testing.T) {
	c := mustCipher(t)
	f := func(plain, aad []byte) bool {
		sealed := c.Seal(plain, aad)
		got, err := c.Open(sealed, aad)
		return err == nil && bytes.Equal(got, plain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashConcatMatchesHash(t *testing.T) {
	a, b := []byte("hello "), []byte("world")
	joined := Hash(append(bytes.Clone(a), b...))
	if HashConcat(a, b) != joined {
		t.Error("HashConcat must equal Hash of concatenation")
	}
}

// TestMAC: a MAC over parts is the MAC of their concatenation, verifies
// under its key only, and fails on any flipped bit of the signature.
func TestMAC(t *testing.T) {
	k, other := Key{1}, Key{2}
	a, b := []byte("signed "), []byte("statement")
	sig := MAC(k, a, b)
	if sig != MAC(k, append(bytes.Clone(a), b...)) {
		t.Error("MAC over parts must equal MAC of their concatenation")
	}
	if !VerifyMAC(k, sig, a, b) || VerifyMAC(other, sig, a, b) || VerifyMAC(k, sig, a) {
		t.Error("VerifyMAC must accept only the signing key over the signed bytes")
	}
	for i := range sig {
		bad := sig
		bad[i] ^= 1
		if VerifyMAC(k, bad, a, b) {
			t.Fatalf("VerifyMAC accepted a signature with byte %d flipped", i)
		}
	}
}
