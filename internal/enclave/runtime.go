package enclave

import (
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/obs"
)

// RuntimeConfig configures the TEE cost model for one enclave.
type RuntimeConfig struct {
	// Mode selects native (no costs) or SCONE-style enclave execution.
	Mode Mode
	// EPCBudget is the enclave page cache size in bytes (94 MiB on SGXv1
	// per the paper). Enclave allocations beyond the budget charge
	// paging penalties per 4 KiB page. Zero means DefaultEPCBudget.
	EPCBudget int64
}

// Costs are the penalties for TEE events, applied as busy-waits so
// measured wall-clock throughput exhibits the paper's native-vs-SCONE
// shape. They follow published SGX/SCONE microbenchmarks: a world switch
// (synchronous enclave transition) costs ~8 µs, a SCONE asynchronous
// syscall ~1.5 µs, and an EPC page fault ~12 µs.
type Costs struct {
	// WorldSwitch is charged for synchronous enclave exits (OCALLs,
	// blocking syscalls without the async path).
	WorldSwitch time.Duration
	// AsyncSyscall is charged per syscall issued through SCONE's
	// exit-less asynchronous syscall interface.
	AsyncSyscall time.Duration
	// PageFault is charged per 4 KiB page of EPC paging traffic.
	PageFault time.Duration
	// CopyPerKB is charged per KiB moved across the enclave boundary
	// (message buffers live encrypted in host memory, §VII-D; every send
	// and receive copies the payload in or out of the enclave).
	CopyPerKB time.Duration
	// MsgOverhead is the fixed enclave-side cost per network message
	// (boundary crossing bookkeeping on the kernel-bypass path).
	MsgOverhead time.Duration
}

// DefaultCosts is the one price list: every SCONE runtime charges it, and
// nothing outside this package prices a TEE or network event.
func DefaultCosts() Costs {
	return Costs{
		WorldSwitch:  8 * time.Microsecond,
		AsyncSyscall: 1500 * time.Nanosecond,
		PageFault:    12 * time.Microsecond,
		CopyPerKB:    650 * time.Nanosecond,
		MsgOverhead:  1700 * time.Nanosecond,
	}
}

// DefaultEPCBudget is the usable EPC size modelled (SGXv1, §II-B).
const DefaultEPCBudget = 94 << 20

// pageSize is the EPC paging granularity.
const pageSize = 4096

// Stats counts TEE events charged so far. Reads are approximate under
// concurrency (fields are read individually).
type Stats struct {
	// WorldSwitches counts synchronous enclave transitions.
	WorldSwitches uint64
	// AsyncSyscalls counts exit-less syscalls.
	AsyncSyscalls uint64
	// Messages counts network messages charged (MessageCost), one per
	// packet sent or received.
	Messages uint64
	// PageFaults counts 4 KiB EPC paging events.
	PageFaults uint64
	// EnclaveBytes is the current enclave-resident allocation footprint.
	EnclaveBytes int64
	// HostBytes is the current untrusted host-memory footprint.
	HostBytes int64
}

// Runtime charges TEE costs and tracks EPC pressure for one enclave. It is
// safe for concurrent use; all methods are cheap atomics in native mode.
type Runtime struct {
	mode      Mode
	costs     Costs
	epcBudget int64

	worldSwitches atomic.Uint64
	asyncSyscalls atomic.Uint64
	messages      atomic.Uint64
	pageFaults    atomic.Uint64
	enclaveBytes  atomic.Int64
	hostBytes     atomic.Int64
}

// NewRuntime creates a runtime from cfg, filling in defaults.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	rt := &Runtime{mode: cfg.Mode, epcBudget: cfg.EPCBudget}
	if rt.mode == 0 {
		rt.mode = ModeNative
	}
	if rt.mode == ModeScone {
		rt.costs = DefaultCosts()
	}
	if rt.epcBudget == 0 {
		rt.epcBudget = DefaultEPCBudget
	}
	return rt
}

// NewNativeRuntime returns a zero-cost runtime (the native baseline).
func NewNativeRuntime() *Runtime {
	return NewRuntime(RuntimeConfig{Mode: ModeNative})
}

// NewSconeRuntime returns a runtime with the default SCONE cost model.
func NewSconeRuntime() *Runtime {
	return NewRuntime(RuntimeConfig{Mode: ModeScone})
}

// EPCBudget returns the modelled enclave page cache size in bytes.
// Enclave-resident allocations past this point pay paging penalties.
func (rt *Runtime) EPCBudget() int64 { return rt.epcBudget }

// Secure reports whether the runtime models enclave execution.
func (rt *Runtime) Secure() bool { return rt.mode == ModeScone }

// spinWait burns CPU for roughly d. Busy-waiting (rather than sleeping)
// matches how enclave transition costs behave — the core is occupied —
// and is accurate at sub-microsecond scales where timers are not. Clock
// reads can cost ~1 µs on virtualized hosts, so the wait spins a
// calibrated number of arithmetic iterations instead of polling the
// clock.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	iters := int(float64(d.Nanoseconds()) * spinItersPerNS())
	sink := spinSink.Load()
	for i := 0; i < iters; i++ {
		sink = sink*2862933555777941757 + 3037000493
	}
	spinSink.Store(sink)
}

// spinSink defeats dead-code elimination of the spin loop. Atomic
// because concurrent spinners share it (its value is meaningless; only
// the data dependency matters).
var spinSink atomic.Uint64

var (
	spinCalOnce sync.Once
	spinPerNS   float64
)

// spinItersPerNS measures the spin loop's speed once.
func spinItersPerNS() float64 {
	spinCalOnce.Do(func() {
		const probe = 2_000_000
		sink := spinSink.Load()
		start := time.Now()
		for i := 0; i < probe; i++ {
			sink = sink*2862933555777941757 + 3037000493
		}
		elapsed := time.Since(start)
		spinSink.Store(sink)
		if elapsed <= 0 {
			elapsed = time.Millisecond
		}
		spinPerNS = probe / float64(elapsed.Nanoseconds())
	})
	return spinPerNS
}

// Syscall charges one asynchronous (exit-less) syscall. Use at every I/O
// call site that goes through SCONE's async syscall interface: file
// read/write/fsync, socket send/recv.
func (rt *Runtime) Syscall() {
	if rt.mode != ModeScone {
		return
	}
	rt.asyncSyscalls.Add(1)
	spinWait(rt.costs.AsyncSyscall)
}

// Syscalls charges n asynchronous syscalls in one batch.
func (rt *Runtime) Syscalls(n int) {
	if rt.mode != ModeScone || n <= 0 {
		return
	}
	rt.asyncSyscalls.Add(uint64(n))
	spinWait(time.Duration(n) * rt.costs.AsyncSyscall)
}

// WorldSwitch charges one synchronous enclave transition (an OCALL or a
// blocking operation that cannot use the async path, e.g. sleeping when
// no fiber is runnable, §VII-C).
func (rt *Runtime) WorldSwitch() {
	if rt.mode != ModeScone {
		return
	}
	rt.worldSwitches.Add(1)
	spinWait(rt.costs.WorldSwitch)
}

// MessageCost charges the enclave-side cost of sending or receiving one
// network message of n bytes: the fixed boundary overhead plus the copy
// between host DMA memory and the enclave.
func (rt *Runtime) MessageCost(n int) {
	if rt.mode != ModeScone {
		return
	}
	rt.messages.Add(1)
	kb := time.Duration((n + 1023) / 1024)
	spinWait(rt.costs.MsgOverhead + kb*rt.costs.CopyPerKB)
}

// AllocEnclave records n bytes allocated inside the enclave. Allocations
// that push the footprint past the EPC budget charge paging penalties for
// every 4 KiB page beyond it — this is what makes enclave-resident message
// buffers and values expensive (§VII-D) and why Treaty places them in host
// memory instead.
func (rt *Runtime) AllocEnclave(n int) {
	if n <= 0 {
		return
	}
	newTotal := rt.enclaveBytes.Add(int64(n))
	if rt.mode != ModeScone {
		return
	}
	if over := newTotal - rt.epcBudget; over > 0 {
		pages := int(min(over, int64(n))+pageSize-1) / pageSize
		rt.pageFaults.Add(uint64(pages))
		spinWait(time.Duration(pages) * rt.costs.PageFault)
	}
}

// FreeEnclave records n bytes released from enclave memory.
func (rt *Runtime) FreeEnclave(n int) {
	if n <= 0 {
		return
	}
	rt.enclaveBytes.Add(int64(-n))
}

// AllocHost records n bytes allocated in untrusted host memory. Host
// allocations are free of EPC pressure (but their contents must be
// encrypted by the caller).
func (rt *Runtime) AllocHost(n int) {
	if n > 0 {
		rt.hostBytes.Add(int64(n))
	}
}

// FreeHost records n bytes released from host memory.
func (rt *Runtime) FreeHost(n int) {
	if n > 0 {
		rt.hostBytes.Add(int64(-n))
	}
}

// TouchEnclave charges EPC paging for re-accessing n bytes while the
// enclave footprint exceeds budget (working-set pressure on reads).
func (rt *Runtime) TouchEnclave(n int) {
	if rt.mode != ModeScone || n <= 0 {
		return
	}
	if rt.enclaveBytes.Load() > rt.epcBudget {
		pages := (n + pageSize - 1) / pageSize
		rt.pageFaults.Add(uint64(pages))
		spinWait(time.Duration(pages) * rt.costs.PageFault)
	}
}

// RegisterMetrics exports the runtime's event counters into reg (nil ok)
// as snapshot-time funcs over the existing atomics — the cost model's
// hot paths are untouched. "enclave.paging_penalty_ns" is the cumulative
// busy-wait charged for EPC paging (pageFaults × Costs.PageFault), the
// quantity the paper's §VII-D memory-placement argument is about.
func (rt *Runtime) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("enclave.world_switches", rt.worldSwitches.Load)
	reg.CounterFunc("enclave.async_syscalls", rt.asyncSyscalls.Load)
	reg.CounterFunc("enclave.messages", rt.messages.Load)
	reg.CounterFunc("enclave.page_faults", rt.pageFaults.Load)
	reg.CounterFunc("enclave.paging_penalty_ns", func() uint64 {
		return rt.pageFaults.Load() * uint64(rt.costs.PageFault.Nanoseconds())
	})
	reg.GaugeFunc("enclave.bytes.enclave", rt.enclaveBytes.Load)
	reg.GaugeFunc("enclave.bytes.host", rt.hostBytes.Load)
}

// Stats returns a snapshot of the event counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		WorldSwitches: rt.worldSwitches.Load(),
		AsyncSyscalls: rt.asyncSyscalls.Load(),
		Messages:      rt.messages.Load(),
		PageFaults:    rt.pageFaults.Load(),
		EnclaveBytes:  rt.enclaveBytes.Load(),
		HostBytes:     rt.hostBytes.Load(),
	}
}
