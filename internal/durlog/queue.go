package durlog

import (
	"sync"

	"treaty/internal/obs"
)

// groupLimit bounds the requests of one commit group.
const groupLimit = 64

// Queue is the group-commit drain loop (§VII-B): callers Submit requests,
// one leader goroutine drains up to groupLimit of them and hands the group
// to commit, which runs the log's Commit (under whatever lock the owner
// needs) and completes the waiters.
type Queue[R any] struct {
	// Sizes observes group sizes. It may be set until the first Submit,
	// whose channel send publishes it to the leader.
	Sizes *obs.Histogram

	ch     chan R
	mu     sync.RWMutex // orders Submit's send before Close's close(ch)
	closed bool
	wg     sync.WaitGroup
}

// NewQueue starts the leader. commit must not retain the group slice.
func NewQueue[R any](commit func(group []R)) *Queue[R] {
	// Room for one full group, so a cohort can queue up behind the group
	// in flight without blocking its submitters one by one.
	q := &Queue[R]{ch: make(chan R, groupLimit)}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		var group []R
		for r := range q.ch {
			group = append(group[:0], r)
		drain:
			for len(group) < groupLimit {
				select {
				case r, ok := <-q.ch:
					if !ok {
						break drain
					}
					group = append(group, r)
				default:
					break drain
				}
			}
			q.Sizes.Observe(int64(len(group)))
			commit(group)
		}
	}()
	return q
}

// Submit enqueues r for the leader; it reports false, without enqueuing,
// once the queue is closed.
func (q *Queue[R]) Submit(r R) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false
	}
	q.ch <- r
	return true
}

// Close stops accepting requests and returns once the leader has committed
// everything already queued and exited, so no write can reach the log
// afterwards. It reports whether this call was the one that closed.
func (q *Queue[R]) Close() bool {
	q.mu.Lock()
	first := !q.closed
	if first {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
	q.wg.Wait()
	return first
}
