package obs

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines and checks the totals are exact. Run under -race.
func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test.events")
	g := reg.Gauge("test.level")
	const workers, per = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(3)
				g.Add(-2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter: got %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge: got %d, want %d", got, workers*per)
	}
	s := reg.Snapshot()
	if s.Counter("test.events") != workers*per || s.Gauge("test.level") != workers*per {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
}

// TestHistogramConcurrent hammers a histogram from many goroutines while
// a reader takes snapshots, asserting exact final totals and that
// observed counts are monotonic across snapshots.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test.lat")
	const workers, per = 8, 5_000
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot().Histograms["test.lat"]
			if s.Count < last {
				snapErr = &monotonicErr{prev: last, got: s.Count}
				return
			}
			last = s.Count
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	s := h.snapshot()
	if s.Count != workers*per {
		t.Fatalf("count: got %d, want %d", s.Count, workers*per)
	}
	// Sum of 0..workers*per-1.
	n := int64(workers * per)
	if want := n * (n - 1) / 2; s.Sum != want {
		t.Fatalf("sum: got %d, want %d", s.Sum, want)
	}
	if s.Max != n-1 {
		t.Fatalf("max: got %d, want %d", s.Max, n-1)
	}
	if s.P50 <= 0 || s.P50 >= s.Max || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Fatalf("quantiles out of order: %+v", s)
	}
}

type monotonicErr struct{ prev, got uint64 }

func (e *monotonicErr) Error() string { return "snapshot count went backwards" }

// TestHistogramQuantiles checks the log-linear estimates land inside the
// right factor-of-two bucket for a known distribution.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.snapshot()
	// True p50 = 500 (bucket [256,512)), p95 = 950, p99 = 990
	// (both in bucket [512,1024)).
	if s.P50 < 256 || s.P50 > 512 {
		t.Fatalf("p50 = %d, want within [256,512]", s.P50)
	}
	if s.P95 < 512 || s.P95 > 1024 {
		t.Fatalf("p95 = %d, want within [512,1024]", s.P95)
	}
	if s.P99 < s.P95 || s.P99 > 1024 {
		t.Fatalf("p99 = %d, want within [p95,1024]", s.P99)
	}
	if s.Mean < 490 || s.Mean > 510 {
		t.Fatalf("mean = %f, want ~500.5", s.Mean)
	}
}

// TestNilSafety: a nil registry and nil metrics must be no-ops, so
// uninstrumented deployments pay nothing and call sites need no guards.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x")
	c.Inc()
	c.Add(5)
	g.Add(1)
	g.Set(9)
	h.Observe(10)
	reg.CounterFunc("f", func() uint64 { return 1 })
	reg.GaugeFunc("f", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var tr *Trace
	tr.Enter(StageCommit)
	tr.Finish(OutcomeCommitted, "")
	if tr.ID() != "" || tr.Total() != 0 || len(tr.Stages()) != 0 {
		t.Fatal("nil trace must be inert")
	}
	var tcr *Tracer
	if tcr.Begin("x", StageBegin) != nil || tcr.Recent() != nil {
		t.Fatal("nil tracer must mint nil traces")
	}
}

// TestSnapshotFuncsAndJSON covers CounterFunc/GaugeFunc evaluation and
// the JSON export shape.
func TestSnapshotFuncsAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(7)
	reg.Gauge("a.level").Set(-3)
	reg.Histogram("a.lat").Observe(100)
	var backing uint64 = 42
	reg.CounterFunc("b.lazy", func() uint64 { return backing })
	reg.GaugeFunc("b.depth", func() int64 { return 5 })
	s := reg.Snapshot()
	if s.Counter("b.lazy") != 42 || s.Gauge("b.depth") != 5 {
		t.Fatalf("funcs not evaluated: %+v", s)
	}
	backing = 43
	if reg.Snapshot().Counter("b.lazy") != 43 {
		t.Fatal("CounterFunc must re-evaluate per snapshot")
	}
	raw, err := s.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a.count") != 7 || back.Gauge("a.level") != -3 {
		t.Fatalf("JSON round trip lost data: %s", raw)
	}
	if back.Histograms["a.lat"].Count != 1 {
		t.Fatalf("JSON round trip lost histogram: %s", raw)
	}
	names := s.Names()
	if len(names) != 5 {
		t.Fatalf("Names() = %v, want 5 entries", names)
	}
}

// TestLaws: CheckLaws evaluates every registered law against one
// snapshot, in name order, and returns the first violation prefixed by
// the law's name; re-registering a name replaces the law, and a nil
// registry has no laws. Balance and AtMost read counters and gauges alike
// and refuse a negative gauge.
func TestLaws(t *testing.T) {
	reg := NewRegistry()
	in, out, level := reg.Counter("test.in"), reg.Counter("test.out"), reg.Gauge("test.level")
	reg.Balance("test.balance", "test.in", "test.out", "test.level")
	reg.Balance("test.idle", "test.busy")
	reg.AtMost("test.bound", "test.level", "test.cap")
	reg.Law("test.zzz", func(Snapshot) error { return errors.New("always") })
	reg.Law("test.zzz", func(Snapshot) error { return nil })
	if err := reg.CheckLaws(); err != nil {
		t.Fatalf("balanced registry: %v", err)
	}
	reg.GaugeFunc("test.cap", func() int64 { return 5 })
	for _, c := range []struct {
		move func()
		want string
	}{
		{func() { in.Inc() }, "test.balance law violated: test.in=1 != sum(test.out=0, test.level=0)=0"},
		{func() { level.Add(1) }, ""},
		{func() { in.Add(5); level.Add(5) }, "test.bound law violated: test.level=6 outside [0, test.cap=5]"},
		{func() { level.Add(-7); out.Add(6) }, "test.balance law violated: test.level=-1 < 0"},
		{func() { level.Add(1) }, ""},
		{func() { reg.Gauge("test.busy").Add(1) }, "test.idle law violated: test.busy=1 != sum()=0"},
	} {
		c.move()
		if err := reg.CheckLaws(); (err == nil) != (c.want == "") || err != nil && err.Error() != c.want {
			t.Fatalf("CheckLaws = %v, want %q", err, c.want)
		}
	}
	var none *Registry
	none.Law("test.nil", func(Snapshot) error { return errors.New("never registered") })
	if err := none.CheckLaws(); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
}
