package fibers

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/obs"
)

func TestFibersRunToCompletion(t *testing.T) {
	s := New(2, nil)
	defer s.Stop()
	var count atomic.Int64
	var handles []*Fiber
	for i := 0; i < 50; i++ {
		f, err := s.Go(func(*Fiber) { count.Add(1) })
		if err != nil {
			t.Fatalf("Go: %v", err)
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		s.Join(f)
	}
	if got := count.Load(); got != 50 {
		t.Errorf("ran %d fibers, want 50", got)
	}
}

func TestOneFiberPerWorkerAtATime(t *testing.T) {
	s := New(1, nil) // single worker: strict serialization
	defer s.Stop()
	// running counts fibers executing fiber code. A parked fiber executes
	// none — its goroutine only blocks — so odd fibers parking on a timer
	// while the others yield must never lift it above one.
	var running, maxRunning atomic.Int64
	var handles []*Fiber
	for i := 0; i < 10; i++ {
		i := i
		f, err := s.Go(func(f *Fiber) {
			for j := 0; j < 20; j++ {
				cur := running.Add(1)
				for {
					prev := maxRunning.Load()
					if cur <= prev || maxRunning.CompareAndSwap(prev, cur) {
						break
					}
				}
				running.Add(-1)
				if i%2 == 1 {
					f.Park(func() { time.Sleep(50 * time.Microsecond) })
				} else {
					f.Yield()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		s.Join(f)
	}
	if got := maxRunning.Load(); got != 1 {
		t.Errorf("max concurrent fibers on one worker = %d, want 1", got)
	}
}

// TestParkGivesTheWorkerAway: with one worker, a fiber parked on a channel
// lets a second fiber run to completion, and continues after the channel
// closes.
func TestParkGivesTheWorkerAway(t *testing.T) {
	s := New(1, nil)
	defer s.Stop()
	gate := make(chan struct{})
	var order []string // appended by fiber code only: one worker, no lock
	parker, err := s.Go(func(f *Fiber) {
		order = append(order, "parker parks")
		f.Park(func() { <-gate })
		order = append(order, "parker resumed")
	})
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Go(func(f *Fiber) {
		f.Yield()
		order = append(order, "other done")
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Join(other) // would hang if the parked fiber kept the worker
	close(gate)
	s.Join(parker)
	want := []string{"parker parks", "other done", "parker resumed"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestParkedWaitLeavesWorkerIdle: a fiber that waits 50 ms is not run once
// meanwhile — no yield, no poll. The worker, having nothing else, sleeps
// once for the whole wait and charges exactly one world switch; a fiber
// polling through yields would keep the worker busy and charge none.
func TestParkedWaitLeavesWorkerIdle(t *testing.T) {
	rt := enclave.NewSconeRuntime()
	s := New(1, rt)
	defer s.Stop()
	wake := make(chan struct{})
	var idled uint64
	f, err := s.Go(func(f *Fiber) {
		before := rt.Stats().WorldSwitches
		if Wait(func() bool { return false }, wake, time.Now().Add(50*time.Millisecond), f) {
			t.Error("Wait reported an impossible condition met")
		}
		idled = rt.Stats().WorldSwitches - before
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Join(f)
	if idled != 1 {
		t.Errorf("worker charged %d world switches during a 50 ms parked wait, want 1", idled)
	}
}

// TestOneWorldSwitchPerPark: a fiber parked n times, each park held for a
// millisecond, costs its worker at most one world switch per idle period —
// before the fiber starts, at each park, after it ends — however long the
// park lasts.
func TestOneWorldSwitchPerPark(t *testing.T) {
	rt := enclave.NewSconeRuntime()
	s := New(1, rt)
	const n = 20
	f, err := s.Go(func(f *Fiber) {
		for i := 0; i < n; i++ {
			f.Park(func() { time.Sleep(time.Millisecond) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Join(f)
	s.Stop()
	if got := rt.Stats().WorldSwitches; got > n+2 {
		t.Errorf("%d world switches for %d parks, want at most %d", got, n, n+2)
	}
}

// TestParkAcrossStopFreezes: a parked fiber whose block returns after the
// scheduler stopped queues itself and never runs another line — the same
// freeze a crash gives a fiber that had yielded.
func TestParkAcrossStopFreezes(t *testing.T) {
	s := New(1, nil)
	gate := make(chan struct{})
	parked := make(chan struct{})
	var ranOn atomic.Bool
	if _, err := s.Go(func(f *Fiber) {
		f.Park(func() {
			close(parked)
			<-gate
		})
		ranOn.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	<-parked
	s.Stop()
	close(gate)
	w := s.workers[0]
	queued := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.queue) > 0
	}
	if !waitFor(queued) {
		t.Fatal("the unparked fiber never queued itself")
	}
	time.Sleep(10 * time.Millisecond) // a resumed fiber would get here well within this
	if ranOn.Load() {
		t.Error("fiber code ran after Stop")
	}
}

// TestObserveCountsParkedFibers: the gauge is up while a fiber is parked
// and down after, the parked law trips while it is up, and the histogram
// has the park's duration.
func TestObserveCountsParkedFibers(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(1, nil)
	s.Observe(reg)
	defer s.Stop()
	gate := make(chan struct{})
	parked := make(chan struct{})
	f, err := s.Go(func(f *Fiber) {
		f.Park(func() {
			close(parked)
			<-gate
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	if got := reg.Snapshot().Gauge("fibers.parked"); got != 1 {
		t.Errorf("fibers.parked = %d with one fiber parked, want 1", got)
	}
	if err := reg.CheckLaws(); err == nil || !strings.Contains(err.Error(), "fibers.parked law violated: fibers.parked=1 != sum()=0") {
		t.Errorf("parked law with one fiber parked: %v", err)
	}
	close(gate)
	s.Join(f)
	snap := reg.Snapshot()
	if got := snap.Gauge("fibers.parked"); got != 0 {
		t.Errorf("fibers.parked = %d after the fiber finished, want 0", got)
	}
	if err := reg.CheckLaws(); err != nil {
		t.Errorf("parked law after the fiber finished: %v", err)
	}
	if got := snap.Histograms["fibers.parked_ns"].Count; got != 1 {
		t.Errorf("fibers.parked_ns has %d observations, want 1", got)
	}
}

func TestYieldInterleavesRoundRobin(t *testing.T) {
	s := New(1, nil)
	defer s.Stop()
	var mu sync.Mutex
	var order []int
	var handles []*Fiber
	for i := 0; i < 3; i++ {
		f, err := s.Go(func(f *Fiber) {
			for j := 0; j < 3; j++ {
				mu.Lock()
				order = append(order, 0)
				mu.Unlock()
				f.Yield()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		s.Join(f)
	}
	if len(order) != 9 {
		t.Errorf("total slices = %d, want 9", len(order))
	}
}

func TestSleepDoesNotBlockOtherFibers(t *testing.T) {
	s := New(1, nil)
	defer s.Stop()
	sleeper, err := s.Go(func(f *Fiber) {
		Wait(func() bool { return false }, nil, time.Now().Add(100*time.Millisecond), f)
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	quick, err := s.Go(func(f *Fiber) {
		for i := 0; i < 10; i++ {
			f.Yield()
		}
		close(done)
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(90 * time.Millisecond):
		t.Error("quick fiber starved behind a sleeping fiber")
	}
	s.Join(sleeper)
	s.Join(quick)
}

func TestYieldUntil(t *testing.T) {
	s := New(1, nil)
	defer s.Stop()
	var flag atomic.Bool
	setter, err := s.Go(func(f *Fiber) {
		for i := 0; i < 5; i++ {
			f.Yield()
		}
		flag.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	var met bool
	waiter, err := s.Go(func(f *Fiber) {
		met = Wait(flag.Load, nil, time.Now().Add(time.Second), f)
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Join(setter)
	s.Join(waiter)
	if !met {
		t.Error("Wait must observe the flag")
	}
}

func TestYieldUntilDeadline(t *testing.T) {
	s := New(1, nil)
	defer s.Stop()
	var met bool
	f, err := s.Go(func(f *Fiber) {
		met = Wait(func() bool { return false }, nil, time.Now().Add(10*time.Millisecond), f)
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Join(f)
	if met {
		t.Error("Wait must time out on an impossible condition")
	}
}

func TestGoAfterStop(t *testing.T) {
	s := New(1, nil)
	s.Stop()
	if _, err := s.Go(func(*Fiber) {}); err != ErrStopped {
		t.Errorf("got %v, want ErrStopped", err)
	}
}

func TestStopIdempotent(t *testing.T) {
	s := New(2, nil)
	s.Stop()
	s.Stop() // must not panic or hang
}

// TestIdleWorkerChargesWorldSwitch: an idle worker charges one world
// switch for its sleep, and no more however long it sleeps.
func TestIdleWorkerChargesWorldSwitch(t *testing.T) {
	rt := enclave.NewSconeRuntime()
	s := New(1, rt)
	defer s.Stop()
	for deadline := time.Now().Add(5 * time.Second); rt.Stats().WorldSwitches != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("idle worker charged %d world switches, want 1", rt.Stats().WorldSwitches)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := rt.Stats().WorldSwitches; got != 1 {
		t.Errorf("idle worker charged %d world switches after 20 ms asleep, want 1", got)
	}
}

func TestManyFibersManyWorkers(t *testing.T) {
	s := New(4, nil)
	defer s.Stop()
	var sum atomic.Int64
	var handles []*Fiber
	for i := 0; i < 200; i++ {
		f, err := s.Go(func(f *Fiber) {
			for j := 0; j < 10; j++ {
				sum.Add(1)
				f.Yield()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		s.Join(f)
	}
	if got := sum.Load(); got != 2000 {
		t.Errorf("sum = %d, want 2000", got)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Property: with N always-runnable fibers on one worker, slice counts
	// stay balanced — no fiber starves or dominates.
	s := New(1, nil)
	defer s.Stop()
	const fibersN, slices = 5, 200
	counts := make([]atomic.Int64, fibersN)
	var handles []*Fiber
	stop := make(chan struct{})
	// Slices count only once every fiber exists: on a busy host the first
	// fiber can otherwise run its whole quota before the last is spawned.
	var started atomic.Bool
	for i := 0; i < fibersN; i++ {
		f, err := s.Go(func(f *Fiber) {
			idx := int(f.ID()-1) % fibersN
			for {
				select {
				case <-stop:
					return
				default:
				}
				if started.Load() {
					counts[idx].Add(1)
				}
				f.Yield()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	started.Store(true)
	// Wait until the busiest fiber has many slices.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var max int64
		for i := range counts {
			if c := counts[i].Load(); c > max {
				max = c
			}
		}
		if max >= slices || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	for _, f := range handles {
		s.Join(f)
	}
	var min, max int64 = 1 << 62, 0
	for i := range counts {
		c := counts[i].Load()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatal("a fiber starved completely")
	}
	if max > 3*min {
		t.Errorf("unfair scheduling: max %d vs min %d slices", max, min)
	}
}

func TestFiberIDsUnique(t *testing.T) {
	s := New(2, nil)
	defer s.Stop()
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var handles []*Fiber
	for i := 0; i < 100; i++ {
		f, err := s.Go(func(f *Fiber) {
			mu.Lock()
			defer mu.Unlock()
			if seen[f.ID()] {
				t.Errorf("duplicate fiber id %d", f.ID())
			}
			seen[f.ID()] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	for _, f := range handles {
		s.Join(f)
	}
}

func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// goroutines returns the stacks of the goroutines running this module's
// code outside a test function, leaving out fibers frozen for good by an
// earlier test's Stop (TestParkAcrossStopFreezes).
func goroutines() [][]byte {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var gs [][]byte
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("treaty/internal/")) && !bytes.Contains(g, []byte("testing.tRunner")) &&
			!bytes.Contains(g, []byte("fibers.(*Fiber).Park")) {
			gs = append(gs, g)
		}
	}
	return gs
}

// idleCarriers is the length of s's pool of idle carriers.
func idleCarriers(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle)
}

// TestSequentialFibersShareOneCarrier: fibers run one after another on a
// worker reuse one carrier, so the goroutine count does not grow with
// their number; fibers queued behind a running one run on its carrier
// too.
func TestSequentialFibersShareOneCarrier(t *testing.T) {
	if !waitFor(func() bool { return len(goroutines()) == 0 }) {
		t.Fatalf("goroutines of an earlier test still run module code:\n%s", bytes.Join(goroutines(), []byte("\n\n")))
	}
	s := New(1, nil)
	defer s.Stop()
	for i := 0; i < 100; i++ {
		f, err := s.Go(func(*Fiber) {})
		if err != nil {
			t.Fatal(err)
		}
		s.Join(f)
		// The carrier goes back to the pool after Join returns; the next
		// Go must find it there.
		if !waitFor(func() bool { return idleCarriers(s) == 1 }) {
			t.Fatalf("fiber %d: %d idle carriers, want 1", i, idleCarriers(s))
		}
	}
	gate := make(chan struct{})
	first, err := s.Go(func(*Fiber) { <-gate }) // holds the worker
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Fiber
	for i := 0; i < 10; i++ {
		f, err := s.Go(func(*Fiber) {})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, f)
	}
	close(gate)
	s.Join(first)
	for _, f := range queued {
		s.Join(f)
	}
	if !waitFor(func() bool { return idleCarriers(s) == 1 }) {
		t.Errorf("%d idle carriers after 111 fibers, want 1", idleCarriers(s))
	}
	if got := len(goroutines()); got != 1 {
		t.Errorf("%d goroutines after 111 fibers on one worker, want 1 carrier", got)
	}
}

// TestStopEndsIdleCarriers: carriers made for fibers that ran at the same
// time all wait in the pool afterwards, and Stop ends every one of them.
func TestStopEndsIdleCarriers(t *testing.T) {
	if !waitFor(func() bool { return len(goroutines()) == 0 }) {
		t.Fatalf("goroutines of an earlier test still run module code:\n%s", bytes.Join(goroutines(), []byte("\n\n")))
	}
	s := New(4, nil)
	gate := make(chan struct{})
	const n = 8
	var started sync.WaitGroup
	started.Add(n)
	var handles []*Fiber
	for i := 0; i < n; i++ {
		f, err := s.Go(func(f *Fiber) {
			started.Done()
			f.Park(func() { <-gate })
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f)
	}
	started.Wait() // every fiber started: each parked on a carrier of its own
	close(gate)
	for _, f := range handles {
		s.Join(f)
	}
	if !waitFor(func() bool { return idleCarriers(s) == n }) {
		t.Errorf("%d idle carriers after %d parked fibers finished, want %d", idleCarriers(s), n, n)
	}
	s.Stop()
	if !waitFor(func() bool { return len(goroutines()) == 0 }) {
		t.Errorf("%d goroutines after Stop, want 0:\n%s", len(goroutines()), bytes.Join(goroutines(), []byte("\n\n")))
	}
}

// TestParkChargesOnTheReleasingSide: a fiber whose Park leaves its worker
// idle pays the worker's one world switch itself, before its block runs;
// starting it on an idle worker and taking the worker back after the
// park charge nothing, and its end charges the sleep that follows.
func TestParkChargesOnTheReleasingSide(t *testing.T) {
	rt := enclave.NewSconeRuntime()
	switches := func() uint64 { return rt.Stats().WorldSwitches }
	s := New(1, rt)
	if got := switches(); got != 1 {
		t.Fatalf("New charged %d world switches for one sleeping worker, want 1", got)
	}
	gate := make(chan struct{})
	var atStart, inBlock, afterPark uint64
	f, err := s.Go(func(f *Fiber) {
		atStart = switches()
		f.Park(func() {
			inBlock = switches()
			<-gate
		})
		afterPark = switches()
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	s.Join(f)
	s.Stop()
	if atStart != 1 {
		t.Errorf("starting a fiber on an idle worker charged %d world switches, want 0", atStart-1)
	}
	if inBlock != 2 {
		t.Errorf("when the parked fiber's block ran, %d world switches were charged, want 2 (New's and the park's)", inBlock)
	}
	if afterPark != 2 {
		t.Errorf("taking the idle worker back after the park charged %d world switches, want 0", afterPark-2)
	}
	if got := switches(); got != 3 {
		t.Errorf("%d world switches in all, want 3 (New, the park, the end)", got)
	}
}
