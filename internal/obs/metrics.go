// Package obs is Treaty's zero-dependency observability layer: a
// race-clean metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms with p50/p95/p99 snapshots) plus a per-transaction
// stage tracer for the 2PC lifecycle (trace.go).
//
// Design rules:
//
//   - Hot paths touch one atomic per event. Values that already live in
//     subsystem atomics (erpc stats, enclave event counts) are exported
//     through CounterFunc/GaugeFunc, evaluated only at snapshot time, so
//     instrumentation never double-books or adds per-event cost.
//   - Every method is nil-receiver safe, and every Registry accessor is
//     nil-safe, so call sites need no "if metrics != nil" guards: a nil
//     registry turns the whole layer into no-ops.
//   - Snapshot() is a plain JSON-marshalable struct; cross-process
//     tooling (cmd/treatystat, the chaos soak, bench reports) diffs it.
//   - A package that registers metrics registers the laws they obey
//     (Law); whoever quiesces the system checks them all (CheckLaws).
package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n events.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (in-flight requests, bytes
// resident, ...).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets. Bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i); bucket 0 counts zeros. 48 buckets cover every
// nanosecond duration up to ~3.2 days — more than any latency we record.
const histBuckets = 48

// Histogram is a fixed-bucket exponential histogram of non-negative
// values (latencies in nanoseconds, batch sizes, ...). Recording is one
// atomic add per observation plus count/sum/max bookkeeping; quantiles
// are estimated at snapshot time by log-linear interpolation inside the
// winning bucket, so they are exact to within the bucket's factor-of-two
// resolution.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Nanoseconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot summarizes a histogram at one instant.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// snapshot captures the histogram. Under concurrent Observe calls the
// bucket reads are not a single atomic cut, but count and every bucket
// are individually monotonic, so a snapshot never runs backwards
// relative to an earlier one.
func (h *Histogram) snapshot() HistSnapshot {
	var bk [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		bk[i] = h.buckets[i].Load()
		total += bk[i]
	}
	s := HistSnapshot{Count: total, Sum: h.sum.Load(), Max: h.max.Load()}
	if total == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(total)
	s.P50 = quantile(&bk, total, 0.50)
	s.P95 = quantile(&bk, total, 0.95)
	s.P99 = quantile(&bk, total, 0.99)
	return s
}

// quantile finds the bucket holding the q-th observation and linearly
// interpolates within its [2^(i-1), 2^i) span.
func quantile(bk *[histBuckets]uint64, total uint64, q float64) int64 {
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range bk {
		if n == 0 {
			continue
		}
		if rank < seen+n {
			if i == 0 {
				return 0
			}
			lo := int64(1) << (i - 1)
			hi := int64(1) << i
			frac := float64(rank-seen) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += n
	}
	return 0 // unreachable when total > 0
}

// Snapshot is a JSON-marshalable cut of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Registry holds one process/node's metrics, keyed by dotted name
// ("twopc.tx.begun"). A nil *Registry is valid: every accessor returns a
// nil metric whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cfuncs   map[string]func() uint64
	gfuncs   map[string]func() int64
	laws     map[string]func(Snapshot) error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		cfuncs:   make(map[string]func() uint64),
		gfuncs:   make(map[string]func() int64),
		laws:     make(map[string]func(Snapshot) error),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a lazily evaluated counter: fn runs at snapshot
// time only. Use it to export values a subsystem already maintains in
// its own atomics. fn must be safe to call concurrently and must be
// monotonic for conservation laws to hold across snapshots.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfuncs[name] = fn
}

// GaugeFunc registers a lazily evaluated gauge (see CounterFunc).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
}

// Law registers a conservation law over the registry's metrics, named
// with the registering package's prefix ("twopc.tx"): check returns nil
// while the law holds on a quiet system. Registering a name again
// replaces its law.
func (r *Registry) Law(name string, check func(Snapshot) error) {
	if r != nil && check != nil {
		r.mu.Lock()
		r.laws[name] = check
		r.mu.Unlock()
	}
}

// Balance registers the law total == the sum of parts, each a counter or
// a gauge, with no part negative; with no parts, total must be zero
// (nothing left outstanding at quiesce).
func (r *Registry) Balance(name, total string, parts ...string) {
	r.Law(name, func(s Snapshot) error {
		var sum int64
		terms := make([]string, len(parts))
		for i, p := range parts {
			v := s.value(p)
			if v < 0 {
				return fmt.Errorf("%s=%d < 0", p, v)
			}
			sum += v
			terms[i] = fmt.Sprintf("%s=%d", p, v)
		}
		if v := s.value(total); v != sum {
			return fmt.Errorf("%s=%d != sum(%s)=%d", total, v, strings.Join(terms, ", "), sum)
		}
		return nil
	})
}

// AtMost registers the law 0 <= lo <= hi, over counters or gauges.
func (r *Registry) AtMost(name, lo, hi string) {
	r.Law(name, func(s Snapshot) error {
		if l, h := s.value(lo), s.value(hi); l < 0 || l > h {
			return fmt.Errorf("%s=%d outside [0, %s=%d]", lo, l, hi, h)
		}
		return nil
	})
}

// value reads a counter or a gauge.
func (s Snapshot) value(name string) int64 {
	if v, ok := s.Gauges[name]; ok {
		return v
	}
	return int64(s.Counters[name])
}

// CheckLaws evaluates every law, in name order, against one snapshot and
// returns the first violation, prefixed by the law's name. A snapshot is
// not one atomic cut, so a caller that has just quiesced the system
// retries a violation briefly before believing it.
func (r *Registry) CheckLaws() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	laws := maps.Clone(r.laws)
	r.mu.Unlock()
	names := make([]string, 0, len(laws))
	for name := range laws {
		names = append(names, name)
	}
	sort.Strings(names)
	s := r.Snapshot()
	for _, name := range names {
		if err := laws[name](s); err != nil {
			return fmt.Errorf("%s law violated: %w", name, err)
		}
	}
	return nil
}

// Snapshot captures every metric. Registered funcs are called outside
// any hot path but while holding the registry lock; they must not call
// back into the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.cfuncs {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gfuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// MarshalJSONIndent renders the snapshot with stable key order (Go maps
// marshal sorted, so plain json.Marshal is already deterministic; this
// helper just adds indentation for human eyes).
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Names returns the sorted metric names present in the snapshot (handy
// for catalogue-style dumps).
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
