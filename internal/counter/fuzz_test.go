package counter

import (
	"bytes"
	"testing"
)

// FuzzDecodeReq hammers the counter-service request decoder with
// arbitrary bytes: it must return an error or a value that re-encodes
// canonically — never panic, never mis-slice.
func FuzzDecodeReq(f *testing.F) {
	f.Add(encodeReq("wal-1", uint64(42)))
	f.Add(encodeReq("", uint64(0)))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff})              // name length far past the buffer
	f.Add(append(encodeReq("x", 1), 0xAA)) // trailing garbage
	f.Add(encodeReq(string(make([]byte, 300)), ^uint64(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		name, v, err := decodeReq(data)
		if err != nil {
			return
		}
		// Round-trip: what decoded must re-encode into a prefix the
		// decoder reads back identically (trailing bytes are ignored by
		// design).
		re := encodeReq(name, v)
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decode(%x) = (%q, %d) but re-encode %x is not a prefix", data, name, v, re)
		}
		n2, v2, err2 := decodeReq(re)
		if err2 != nil || n2 != name || v2 != v {
			t.Fatalf("re-decode mismatch: (%q,%d,%v) vs (%q,%d)", n2, v2, err2, name, v)
		}
	})
}
