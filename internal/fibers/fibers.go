// Package fibers implements Treaty's userland scheduler (§VII-C): a
// cooperative, round-robin fiber scheduler layered on a small set of
// worker threads. Timer-based (preemptive) scheduling is prohibitively
// expensive inside an enclave — interrupts cause world switches — so the
// engine runs one fiber per connected client and fibers yield explicitly
// at blocking points (lock waits, RPC polls, stabilization waits).
//
// Each worker runs exactly one fiber at a time. When a fiber yields or
// parks, the worker picks the next runnable fiber from its run queue with
// no syscall or world switch (a channel handoff between goroutines). When
// a worker has no runnable fibers it sleeps — the one place a (charged)
// world switch happens — with exponentially increasing backoff, exactly as
// the paper's scheduler yields to SCONE and "increases the amount of time
// before future yields are triggered".
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
	resume chan struct{}
	done   chan struct{}
}

// ID returns the fiber's unique id.
func (f *Fiber) ID() uint64 { return f.id }

// Yield gives up the worker so the next runnable fiber can execute; the
// calling fiber re-enters the back of the run queue (round-robin).
func (f *Fiber) Yield() {
	f.worker.enqueue(f)
	f.worker.relinquish()
	<-f.resume
}

// Park is how fiber code blocks without blocking its worker thread: the
// worker goes to the next runnable fiber, block runs on the fiber's own
// goroutine, where it may block like any goroutine (and must only wait,
// not do the fiber's work), and the fiber re-enters the back of the run
// queue. If the scheduler stops meanwhile it is never resumed: frozen, as
// a fiber that had yielded is. A nil fiber (a goroutine) just calls block.
func (f *Fiber) Park(block func()) {
	if f == nil {
		block()
		return
	}
	s, start := f.worker.sched, time.Now()
	s.parked.Add(1)
	f.worker.relinquish()
	block()
	s.parked.Add(-1)
	s.parkedNs.ObserveSince(start)
	f.worker.enqueue(f)
	<-f.resume
}

// Scheduler multiplexes fibers over a fixed set of workers.
type Scheduler struct {
	workers []*worker
	rt      *enclave.Runtime
	nextID  atomic.Uint64
	nextW   atomic.Uint64
	stopped atomic.Bool
	wg      sync.WaitGroup
	// Fibers inside Park's block, and how long each stayed; nil until Observe.
	parked   *obs.Gauge
	parkedNs *obs.Histogram
}

// New creates a scheduler with the given number of workers (0 means 8,
// the paper's configuration), charging idle-sleep world switches to rt
// (nil for native runs).
func New(workers int, rt *enclave.Runtime) *Scheduler {
	if workers <= 0 {
		workers = 8
	}
	s := &Scheduler{rt: rt, workers: make([]*worker, workers)}
	for i := range s.workers {
		w := &worker{
			sched:   s,
			runq:    make(chan *Fiber, 4096),
			yielded: make(chan struct{}),
			kickCh:  make(chan struct{}, 1),
		}
		s.workers[i] = w
		s.wg.Add(1)
		go w.loop(&s.wg)
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
// client in Treaty). The returned handle can be waited on with Join.
func (s *Scheduler) Go(fn func(*Fiber)) (*Fiber, error) {
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	w := s.workers[s.nextW.Add(1)%uint64(len(s.workers))]
	f := &Fiber{
		id:     s.nextID.Add(1),
		worker: w,
		resume: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		<-f.resume // wait to be scheduled the first time
		fn(f)
		close(f.done)
		w.relinquish()
	}()
	w.enqueue(f)
	return f, nil
}

// Join blocks until fiber f has returned.
func (s *Scheduler) Join(f *Fiber) { <-f.done }

// Stop shuts the scheduler down. All fibers must have finished (or be
// permanently blocked and abandoned by their owners) before Stop returns;
// Stop waits only for the worker loops.
func (s *Scheduler) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	for _, w := range s.workers {
		w.kick()
	}
	s.wg.Wait()
}

// worker runs fibers one at a time from its run queue.
type worker struct {
	sched   *Scheduler
	runq    chan *Fiber
	yielded chan struct{}
	kickCh  chan struct{}
}

// enqueue makes f runnable on this worker. Never drops.
func (w *worker) enqueue(f *Fiber) {
	w.runq <- f
}

// relinquish signals the worker loop that the current fiber has stopped
// running (yielded or finished).
func (w *worker) relinquish() {
	w.yielded <- struct{}{}
}

// kick wakes the worker loop if it is sleeping idle.
func (w *worker) kick() {
	select {
	case w.kickCh <- struct{}{}:
	default:
	}
}

// loop is the worker's scheduling loop: pick the next runnable fiber,
// resume it, and wait until it relinquishes the worker. With an empty run
// queue the worker sleeps with backoff, charging a world switch (sleeping
// requires a syscall out of the enclave).
func (w *worker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	backoff := 10 * time.Microsecond
	const maxBackoff = 2 * time.Millisecond
	// One timer for all idle sleeps. It is stopped or spent at every
	// Reset; a tick that races a Stop at worst cuts one sleep short.
	sleep := time.NewTimer(backoff)
	for {
		select {
		case f := <-w.runq:
			backoff = 10 * time.Microsecond
			w.runFiber(f)
		default:
			if w.sched.stopped.Load() {
				return
			}
			if w.sched.rt != nil {
				w.sched.rt.WorldSwitch()
			}
			sleep.Reset(backoff)
			select {
			case f := <-w.runq:
				sleep.Stop()
				backoff = 10 * time.Microsecond
				w.runFiber(f)
			case <-w.kickCh:
				sleep.Stop()
			case <-sleep.C:
				backoff *= 2
				if backoff > maxBackoff {
					backoff = maxBackoff
				}
			}
		}
	}
}

// runFiber resumes f and waits for it to relinquish the worker. This is
// what makes scheduling cooperative: at most one fiber per worker runs at
// any moment.
func (w *worker) runFiber(f *Fiber) {
	f.resume <- struct{}{}
	<-w.yielded
}
