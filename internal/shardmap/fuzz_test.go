package shardmap

import (
	"bytes"
	"testing"

	"treaty/internal/seal"
)

// FuzzShardMapDecode drives the decode/verify path with arbitrary
// bytes: it must never panic, and anything that decodes and verifies
// must re-encode to the same bytes (a canonical-form check that keeps
// signature coverage total).
func FuzzShardMapDecode(f *testing.F) {
	var key seal.Key
	for i := range key {
		key[i] = byte(i * 7)
	}
	mapKey := KeyFor(key)

	good := Uniform([]Member{{ID: 0, Addr: "node-0"}, {ID: 1, Addr: "node-1"}, {ID: 2, Addr: "node-2"}})
	good.Sign(mapKey)
	f.Add(good.Encode())

	next := good.Clone()
	next.Epoch, next.Counter = 2, 2
	next.Slots[5] = 2
	next.Sign(mapKey)
	f.Add(next.Encode())

	// Mutants: truncated, member-count lies, flipped signature byte.
	enc := good.Encode()
	f.Add(enc[:len(enc)/2])
	lied := append([]byte(nil), enc...)
	lied[16] = 0xff
	lied[17] = 0x0f
	f.Add(lied)
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMap(data)
		if err != nil {
			return
		}
		if verr := m.Verify(mapKey, 0); verr != nil {
			return
		}
		// Verified maps are canonical: re-encoding reproduces the input.
		if !bytes.Equal(m.Encode(), data) {
			t.Fatalf("verified map is not canonical")
		}
		// And they route every key to a resolvable owner.
		if m.Owner([]byte("probe")) == "" {
			t.Fatalf("verified map routed to empty owner")
		}
		// And every recorded backup resolves to an address.
		for _, mem := range m.Members {
			if b, ok := m.BackupOf(mem.ID); ok {
				if _, ok := m.Addr(b); !ok {
					t.Fatalf("member %d backed up by unresolvable %d", mem.ID, b)
				}
			}
		}
	})
}
