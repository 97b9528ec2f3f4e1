package enclave

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func mustPlatform(t *testing.T, name string) *Platform {
	t.Helper()
	p, err := NewPlatform(name)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func mustLaunch(t *testing.T, p *Platform, identity string) *Enclave {
	t.Helper()
	e, err := p.Launch(identity, RuntimeConfig{Mode: ModeScone})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return e
}

func TestMeasurementDeterministic(t *testing.T) {
	if MeasureCode("treaty-v1") != MeasureCode("treaty-v1") {
		t.Error("measurement must be deterministic")
	}
	if MeasureCode("treaty-v1") == MeasureCode("treaty-v2") {
		t.Error("different code must measure differently")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e := mustLaunch(t, mustPlatform(t, "node-a"), "treaty")
	data := []byte("counter state: 42")
	sealed := e.Seal(data)
	if bytes.Contains(sealed, data) {
		t.Error("sealed blob leaks plaintext")
	}
	got, err := e.Unseal(sealed)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip mismatch: %q", got)
	}
}

func TestUnsealRejectsTampering(t *testing.T) {
	e := mustLaunch(t, mustPlatform(t, "node-a"), "treaty")
	sealed := e.Seal([]byte("state"))
	sealed[len(sealed)/2] ^= 0x01
	if _, err := e.Unseal(sealed); !errors.Is(err, ErrSealedTampered) {
		t.Errorf("got %v, want ErrSealedTampered", err)
	}
}

func TestSealBoundToEnclaveIdentity(t *testing.T) {
	p := mustPlatform(t, "node-a")
	e1 := mustLaunch(t, p, "treaty")
	e2 := mustLaunch(t, p, "malware")
	sealed := e1.Seal([]byte("secret"))
	if _, err := e2.Unseal(sealed); !errors.Is(err, ErrSealedTampered) {
		t.Errorf("different identity must not unseal: %v", err)
	}
	// Same identity on the same platform (restart) can unseal.
	e3 := mustLaunch(t, p, "treaty")
	if _, err := e3.Unseal(sealed); err != nil {
		t.Errorf("restarted enclave must unseal its own state: %v", err)
	}
}

func TestSealBoundToPlatform(t *testing.T) {
	e1 := mustLaunch(t, mustPlatform(t, "node-a"), "treaty")
	e2 := mustLaunch(t, mustPlatform(t, "node-b"), "treaty")
	sealed := e1.Seal([]byte("secret"))
	if _, err := e2.Unseal(sealed); !errors.Is(err, ErrSealedTampered) {
		t.Errorf("other platform must not unseal: %v", err)
	}
}

func TestQuoteVerification(t *testing.T) {
	p := mustPlatform(t, "node-a")
	e := mustLaunch(t, p, "treaty")
	report, err := Nonce()
	if err != nil {
		t.Fatal(err)
	}
	q := e.Quote(report[:])
	if err := VerifyQuote(p.RootKey(), &q); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
	if q.Measurement != MeasureCode("treaty") {
		t.Error("quote must carry the code measurement")
	}
	if !bytes.Equal(q.ReportData[:], report[:]) {
		t.Error("quote must bind report data")
	}
}

func TestQuoteForgeryRejected(t *testing.T) {
	pa := mustPlatform(t, "node-a")
	pb := mustPlatform(t, "node-b")
	e := mustLaunch(t, pa, "treaty")
	q := e.Quote(nil)

	// Wrong verification key.
	if err := VerifyQuote(pb.RootKey(), &q); !errors.Is(err, ErrQuoteInvalid) {
		t.Errorf("wrong platform key: got %v", err)
	}
	// Tampered measurement (malware claiming to be treaty).
	forged := q
	forged.Measurement = MeasureCode("malware")
	if err := VerifyQuote(pa.RootKey(), &forged); !errors.Is(err, ErrQuoteInvalid) {
		t.Errorf("forged measurement: got %v", err)
	}
	// Tampered report data.
	forged = q
	forged.ReportData[0] ^= 1
	if err := VerifyQuote(pa.RootKey(), &forged); !errors.Is(err, ErrQuoteInvalid) {
		t.Errorf("forged report data: got %v", err)
	}
}

func TestRuntimeNativeIsFree(t *testing.T) {
	rt := NewNativeRuntime()
	start := time.Now()
	for i := 0; i < 100000; i++ {
		rt.Syscall()
		rt.WorldSwitch()
		rt.MessageCost(1024)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("native mode must be near-free, took %v", elapsed)
	}
	s := rt.Stats()
	if s.AsyncSyscalls != 0 || s.WorldSwitches != 0 || s.Messages != 0 {
		t.Errorf("native mode must not count TEE events: %+v", s)
	}
}

func TestRuntimeSconeChargesCosts(t *testing.T) {
	rt := NewSconeRuntime()
	rt.Syscall()
	rt.Syscalls(2)
	rt.WorldSwitch()
	rt.MessageCost(100)
	rt.MessageCost(4096)
	s := rt.Stats()
	if s.AsyncSyscalls != 3 || s.WorldSwitches != 1 || s.Messages != 2 {
		t.Errorf("stats = %+v, want 3 syscalls, 1 world switch, 2 messages", s)
	}
}

func TestRuntimeDefaultsFilled(t *testing.T) {
	rt := NewSconeRuntime()
	if rt.costs != DefaultCosts() {
		t.Error("scone runtime must default costs")
	}
	if rt.epcBudget != DefaultEPCBudget {
		t.Error("EPC budget must default")
	}
	if !rt.Secure() {
		t.Error("scone runtime must report secure")
	}
	if NewNativeRuntime().Secure() {
		t.Error("native runtime must not report secure")
	}
}

func TestEPCPagingChargedBeyondBudget(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Mode: ModeScone, EPCBudget: 1 << 20})
	rt.AllocEnclave(1 << 20) // fill the 1 MiB budget exactly: no paging
	if rt.Stats().PageFaults != 0 {
		t.Fatalf("paging charged within budget: %+v", rt.Stats())
	}
	rt.AllocEnclave(8 * pageSize) // 8 pages beyond
	if got := rt.Stats().PageFaults; got != 8 {
		t.Errorf("PageFaults = %d, want 8", got)
	}
	// Touching memory while over budget also pages.
	rt.TouchEnclave(2 * pageSize)
	if got := rt.Stats().PageFaults; got != 10 {
		t.Errorf("PageFaults after touch = %d, want 10", got)
	}
	// Free down below budget: touches become free.
	rt.FreeEnclave(9 * pageSize)
	rt.TouchEnclave(pageSize)
	if got := rt.Stats().PageFaults; got != 10 {
		t.Errorf("touch under budget must be free, PageFaults = %d", got)
	}
}

func TestHostAllocationsNoEPCPressure(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Mode: ModeScone, EPCBudget: 1 << 20})
	rt.AllocHost(100 << 20)
	if rt.Stats().PageFaults != 0 {
		t.Error("host allocations must not page")
	}
	if rt.Stats().HostBytes != 100<<20 {
		t.Errorf("HostBytes = %d", rt.Stats().HostBytes)
	}
	rt.FreeHost(100 << 20)
	if rt.Stats().HostBytes != 0 {
		t.Errorf("HostBytes after free = %d", rt.Stats().HostBytes)
	}
}

func TestTickMonotonic(t *testing.T) {
	prev := Tick()
	for i := 0; i < 1000; i++ {
		cur := Tick()
		if cur <= prev {
			t.Fatalf("tick not monotonic: %d then %d", prev, cur)
		}
		prev = cur
	}
}

func TestEncodeUint64(t *testing.T) {
	b := EncodeUint64(1, 2)
	if len(b) != 16 {
		t.Fatalf("len = %d", len(b))
	}
	if b[0] != 1 || b[8] != 2 {
		t.Error("little-endian encoding expected")
	}
}
