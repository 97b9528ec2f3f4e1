package fibers

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWait drives the one wait primitive over both kinds of caller, both
// ways of learning about completion, and the three orders in which
// readiness and the deadline can arrive.
func TestWait(t *testing.T) {
	const short, long = 10 * time.Millisecond, 5 * time.Second
	for _, caller := range []string{"fiber", "goroutine"} {
		for _, notice := range []string{"wake", "poll"} {
			for _, order := range []string{"ready_first", "deadline_first", "ready_in_final_poll"} {
				t.Run(caller+"/"+notice+"/"+order, func(t *testing.T) {
					var wake chan struct{}
					if notice == "wake" {
						wake = make(chan struct{}, 1)
					}
					var flag atomic.Bool
					ready := flag.Load
					timeout, want := short, false
					switch order {
					case "ready_first":
						timeout, want = long, true
						go func() {
							time.Sleep(2 * time.Millisecond)
							flag.Store(true)
							if wake != nil {
								wake <- struct{}{}
							}
						}()
					case "ready_in_final_poll":
						// Nothing wakes the waiter: the completion is only
						// there to be found by the poll after the deadline.
						want = true
					}
					start := time.Now()
					deadline := start.Add(timeout)
					if order == "ready_in_final_poll" {
						ready = func() bool { return time.Now().After(deadline) }
					}
					var got bool
					if caller == "fiber" {
						s := New(1, nil)
						defer s.Stop()
						f, err := s.Go(func(f *Fiber) { got = Wait(ready, wake, deadline, f) })
						if err != nil {
							t.Fatal(err)
						}
						s.Join(f)
					} else {
						got = Wait(ready, wake, deadline, nil)
					}
					elapsed := time.Since(start)
					if got != want {
						t.Errorf("Wait = %v, want %v", got, want)
					}
					if want && order == "ready_first" && elapsed >= long {
						t.Errorf("returned after %v: readiness must end the wait, not the deadline", elapsed)
					}
					if order != "ready_first" && elapsed < short {
						t.Errorf("returned after %v, before the %v deadline", elapsed, short)
					}
				})
			}
		}
	}
}

// TestWaitNoDeadline: a zero deadline waits for readiness alone, on both
// arms of the goroutine caller.
func TestWaitNoDeadline(t *testing.T) {
	for _, notice := range []string{"wake", "poll"} {
		var wake chan struct{}
		if notice == "wake" {
			wake = make(chan struct{})
		}
		var flag atomic.Bool
		go func() {
			time.Sleep(2 * time.Millisecond)
			flag.Store(true)
			if wake != nil {
				close(wake)
			}
		}()
		if !Wait(flag.Load, wake, time.Time{}, nil) {
			t.Errorf("%s: Wait without a deadline returned false", notice)
		}
	}
}
