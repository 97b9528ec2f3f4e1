package mempool

import (
	"bytes"
	"sync"
	"testing"

	"treaty/internal/enclave"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1},
		{4096, 6}, {4097, 7}, {4 << 20, numClasses - 1}, {4<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestAllocLenAndCapacity(t *testing.T) {
	p := New(nil, 4)
	for _, n := range []int{1, 64, 100, 4096, 1 << 20} {
		b := p.Alloc(n)
		if len(b.Data) != n {
			t.Errorf("Alloc(%d): len = %d", n, len(b.Data))
		}
		if cap(b.Data) < n {
			t.Errorf("Alloc(%d): cap = %d", n, cap(b.Data))
		}
		p.Free(b)
	}
}

func TestRecycling(t *testing.T) {
	p := New(nil, 1)
	b := p.Alloc(100)
	for i := range b.Data {
		b.Data[i] = 0xAB
	}
	p.Free(b)
	b2 := p.Alloc(70) // same size class (65..128)
	if p.Stats().Recycled != 1 {
		t.Errorf("Recycled = %d, want 1", p.Stats().Recycled)
	}
	// Recycled buffers must be zeroed — stale plaintext in a reused host
	// buffer would be a confidentiality leak.
	if !bytes.Equal(b2.Data, make([]byte, 70)) {
		t.Error("recycled buffer not cleared")
	}
}

func TestOversizedNotRecycled(t *testing.T) {
	p := New(nil, 1)
	b := p.Alloc(8 << 20)
	p.Free(b)
	if p.Stats().Oversized != 1 {
		t.Errorf("Oversized = %d", p.Stats().Oversized)
	}
	b2 := p.Alloc(8 << 20)
	if p.Stats().Recycled != 0 {
		t.Error("oversized buffers must not be recycled")
	}
	p.Free(b2)
	if got := p.Stats().LiveBytes; got != 0 {
		t.Errorf("LiveBytes = %d, want 0", got)
	}
}

// TestRegionAccountingReachesRuntime: the pool's buffers are charged to
// the runtime as host memory, never against the EPC.
func TestRegionAccountingReachesRuntime(t *testing.T) {
	rt := enclave.NewSconeRuntime()
	p := New(rt, 2)
	small, big := p.Alloc(1000), p.Alloc(8<<20)
	s := rt.Stats()
	if s.HostBytes < 1000+8<<20 || s.EnclaveBytes != 0 {
		t.Errorf("after alloc: HostBytes = %d, EnclaveBytes = %d; want >= %d, 0", s.HostBytes, s.EnclaveBytes, 1000+8<<20)
	}
	p.Free(small)
	p.Free(big)
	s = rt.Stats()
	if s.EnclaveBytes != 0 || s.HostBytes != 0 {
		t.Errorf("after free: %+v", s)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := New(nil, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := p.Alloc(64 + i%4000)
				b.Data[0] = byte(i)
				p.Free(b)
			}
		}()
	}
	wg.Wait()
	if got := p.Stats().LiveBytes; got != 0 {
		t.Errorf("LiveBytes = %d after all frees", got)
	}
	if p.Stats().Allocs != 16000 || p.Stats().Frees != 16000 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestFreeForeignOrNilBufIgnored(t *testing.T) {
	p1 := New(nil, 1)
	p2 := New(nil, 1)
	b := p1.Alloc(10)
	p2.Free(b) // foreign: ignored
	p2.Free(nil)
	if p2.Stats().Frees != 0 {
		t.Error("foreign/nil frees must be ignored")
	}
	p1.Free(b)
}
