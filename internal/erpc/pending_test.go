package erpc

import (
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/seal"
)

func TestPendingChannelClosesOnCompletion(t *testing.T) {
	tc := newTestCluster(t, true)
	md := seal.MsgMetadata{TxID: 500, OpID: 1}
	pend := tc.client.Enqueue("server", reqEcho, md, []byte("x"), nil)
	select {
	case <-pend.Ch():
		if !pend.Done() {
			t.Fatal("channel closed before Done")
		}
		if string(pend.Response()) != "x" {
			t.Errorf("response = %q", pend.Response())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending channel never closed")
	}
}

func TestCallBlockingPathNoYield(t *testing.T) {
	tc := newTestCluster(t, true)
	// A goroutine (nil fiber) blocks on the completion channel.
	start := time.Now()
	resp, err := Call(tc.client, "server", reqEcho, seal.MsgMetadata{TxID: 501, OpID: 1}, []byte("blocking"), 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "blocking" {
		t.Errorf("resp = %q", resp)
	}
	if time.Since(start) > time.Second {
		t.Error("blocking call took suspiciously long")
	}
}

// TestCallYieldPathBounded: a fiber that waits for a reply gives its
// worker away — a second fiber of the same (only) worker runs to
// completion while the reply is 5 ms out — and gets the reply.
func TestCallYieldPathBounded(t *testing.T) {
	tc := newTestCluster(t, true)
	s := fibers.New(1, nil)
	defer s.Stop()
	var resp []byte
	var err error
	var answered, ranMeanwhile atomic.Bool
	caller, gerr := s.Go(func(f *fibers.Fiber) {
		resp, err = Call(tc.client, "server", reqNoResp, seal.MsgMetadata{TxID: 502, OpID: 1}, []byte("y"), 2*time.Second, f)
		answered.Store(true)
	})
	if gerr != nil {
		t.Fatal(gerr)
	}
	other, gerr := s.Go(func(*fibers.Fiber) { ranMeanwhile.Store(!answered.Load()) })
	if gerr != nil {
		t.Fatal(gerr)
	}
	s.Join(other)
	s.Join(caller)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "late" {
		t.Errorf("resp = %q", resp)
	}
	if !ranMeanwhile.Load() {
		t.Error("the worker must run another fiber while this one waits for its reply")
	}
}
