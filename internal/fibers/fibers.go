// Package fibers implements Treaty's userland scheduler (§VII-C): a
// cooperative, round-robin fiber scheduler layered on a small set of
// workers. Timer-based (preemptive) scheduling is prohibitively
// expensive inside an enclave — interrupts cause world switches — so the
// engine runs one fiber per request and fibers yield explicitly at
// blocking points (lock waits, RPC polls, stabilization waits).
//
// A worker runs one fiber at a time, each on a carrier (a goroutine
// reused from fiber to fiber); a fiber that yields, parks or finishes
// hands it straight to the next runnable one. An idle worker sleeps until
// a fiber arrives, one world switch per sleep, charged to the fiber that
// left it idle: the limit of the paper's scheduler, which yields to SCONE
// and "increases the amount of time before future yields are triggered".
package fibers

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/obs"
)

// ErrStopped is returned by Go after the scheduler has been stopped.
var ErrStopped = errors.New("fibers: scheduler stopped")

// Fiber is the handle a running task uses to cooperate with its scheduler.
// A fiber must only call methods on its own handle, from its own goroutine.
type Fiber struct {
	id     uint64
	worker *worker
	fn     func(*Fiber)
	c      carrier // nil until the fiber first runs
	done   chan struct{}
}

// ID returns the fiber's unique id.
func (f *Fiber) ID() uint64 { return f.id }

// Yield gives up the worker so the next runnable fiber can execute; the
// calling fiber re-enters the back of the run queue (round-robin).
func (f *Fiber) Yield() {
	w := f.worker
	w.mu.Lock()
	if len(w.queue) == 0 {
		w.mu.Unlock()
		return // nothing else to run
	}
	next := w.queue[0]
	w.queue = append(append(w.queue[:0], w.queue[1:]...), f)
	w.mu.Unlock()
	w.sched.run(next)
	<-f.c
}

// Park is how fiber code blocks without blocking its worker: the worker
// goes to the next runnable fiber while block runs on the fiber's own
// goroutine (it may block, and must only wait), then the fiber takes the
// worker back if idle or queues. If the scheduler stops meanwhile it is
// never resumed: frozen, as a yielded fiber is. A nil fiber calls block.
func (f *Fiber) Park(block func()) {
	if f == nil {
		block()
		return
	}
	w, start := f.worker, time.Now()
	w.sched.parked.Add(1)
	if next := w.release(); next != nil {
		w.sched.run(next)
	}
	block()
	w.sched.parked.Add(-1)
	w.sched.parkedNs.ObserveSince(start)
	if !w.claim(f) {
		<-f.c
	}
}

// Scheduler multiplexes fibers over a fixed set of workers.
type Scheduler struct {
	workers []*worker
	rt      *enclave.Runtime
	nextID  atomic.Uint64
	nextW   atomic.Uint64
	stopped atomic.Bool
	busy    sync.WaitGroup // one count per busy worker
	mu      sync.Mutex
	idle    []carrier // carriers waiting for a fiber to start
	// Fibers inside Park's block, and how long each stayed; nil until Observe.
	parked   *obs.Gauge
	parkedNs *obs.Histogram
}

// New creates a scheduler with the given number of workers (0 means 8,
// the paper's configuration), charging rt one world switch per idle sleep
// (nil for native runs); each worker starts asleep.
func New(workers int, rt *enclave.Runtime) *Scheduler {
	if workers <= 0 {
		workers = 8
	}
	s := &Scheduler{rt: rt, workers: make([]*worker, workers)}
	for i := range s.workers {
		s.workers[i] = &worker{sched: s}
		if rt != nil {
			rt.WorldSwitch()
		}
	}
	return s
}

// Observe exports "fibers.parked" and "fibers.parked_ns" in reg, with the
// parked law: a fiber still parked on a quiet node is a wedge. Call it
// before the first Go.
func (s *Scheduler) Observe(reg *obs.Registry) {
	s.parked = reg.Gauge("fibers.parked")
	s.parkedNs = reg.Histogram("fibers.parked_ns")
	reg.Balance("fibers.parked", "fibers.parked")
}

// Go spawns fn as a fiber, placed round-robin on a worker (one fiber per
// request in Treaty): it starts at once, on an idle carrier, if the
// worker is idle, and queues otherwise. Join waits for it.
func (s *Scheduler) Go(fn func(*Fiber)) (*Fiber, error) {
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	w := s.workers[s.nextW.Add(1)%uint64(len(s.workers))]
	f := &Fiber{id: s.nextID.Add(1), worker: w, fn: fn, done: make(chan struct{})}
	if w.claim(f) {
		s.run(f)
	}
	return f, nil
}

// Join blocks until fiber f has returned.
func (s *Scheduler) Join(f *Fiber) { <-f.done }

// Stop shuts the scheduler down: Go refuses new fibers, and Stop waits
// until no worker runs a fiber, then ends every idle carrier.
func (s *Scheduler) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	for _, w := range s.workers {
		w.mu.Lock() // past this, every claim sees stopped
		w.mu.Unlock()
	}
	s.busy.Wait()
	s.mu.Lock()
	for _, c := range s.idle {
		close(c)
	}
	s.idle = nil
	s.mu.Unlock()
}

// run hands f the worker: it resumes f on its carrier, or starts it on an
// idle carrier or a new one.
func (s *Scheduler) run(f *Fiber) {
	if f.c == nil {
		s.mu.Lock()
		if n := len(s.idle); n > 0 {
			f.c, s.idle = s.idle[n-1], s.idle[:n-1]
		}
		s.mu.Unlock()
	}
	if f.c == nil {
		f.c = make(carrier, 1)
		go f.c.carry(s, f)
	} else {
		f.c <- f
	}
}

// worker runs fibers one at a time.
type worker struct {
	sched *Scheduler
	mu    sync.Mutex
	busy  bool
	queue []*Fiber // runnable, oldest first
}

// claim gives the worker to f if it is idle (the caller then runs f), or
// queues f. After Stop an idle worker stays idle and f frozen.
func (w *worker) claim(f *Fiber) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.busy || w.sched.stopped.Load() {
		w.queue = append(w.queue, f)
		return false
	}
	w.busy = true
	w.sched.busy.Add(1)
	return true
}

// release gives up the worker for its fiber: it returns the queue's head
// for the caller to run, or charges a world switch and sleeps the worker.
func (w *worker) release() (next *Fiber) {
	w.mu.Lock()
	if w.busy = len(w.queue) > 0; w.busy {
		next = w.queue[0]
		w.queue = append(w.queue[:0], w.queue[1:]...)
		w.mu.Unlock()
		return next
	}
	w.mu.Unlock()
	if w.sched.rt != nil {
		w.sched.rt.WorldSwitch()
	}
	w.sched.busy.Done()
	return nil
}

// carrier is a goroutine fibers run on, named by its channel: a send
// starts a fiber on an idle carrier or resumes the one suspended on it.
type carrier chan *Fiber

// carry runs f, then each fiber handed to it (waiting in the idle pool in
// between) until Stop ends it; a successor that never ran runs right here.
func (c carrier) carry(s *Scheduler, f *Fiber) {
	for f != nil {
		f.fn(f)
		close(f.done)
		if f = f.worker.release(); f != nil && f.c == nil {
			f.c = c
			continue
		} else if f != nil {
			s.run(f)
		}
		s.mu.Lock()
		if s.stopped.Load() {
			s.mu.Unlock()
			return
		}
		s.idle = append(s.idle, c)
		s.mu.Unlock()
		f = <-c
	}
}
