// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VIII). Each experiment spins up
// the system under test in-process (the simulated testbed), drives it
// with the paper's workload at the paper's parameters, and reports
// throughput and latency in the same structure as the paper — absolute
// numbers differ (simulator vs the authors' SGX cluster), the *shape*
// (who wins, by what factor) is the reproduction target.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"treaty/internal/obs"
)

// Measurement is one experiment cell: throughput and latency for one
// system version under one workload.
type Measurement struct {
	// Label names the system version (e.g. "Treaty w/ Enc").
	Label string
	// Tps is committed transactions per second.
	Tps float64
	// AvgLatencyMs and P99LatencyMs summarize commit latency.
	AvgLatencyMs float64
	P99LatencyMs float64
	// Committed and Aborted count transaction outcomes.
	Committed uint64
	Aborted   uint64
	// Metrics is each node's metrics snapshot, keyed by its address,
	// taken before the run's cluster was torn down (Run's panels only).
	Metrics map[string]obs.Snapshot `json:",omitempty"`
}

// Slowdown returns base.Tps / m.Tps (the paper's "slowdown w.r.t. X").
func (m Measurement) Slowdown(base Measurement) float64 {
	if m.Tps == 0 {
		return 0
	}
	return base.Tps / m.Tps
}

// rounds is the number of rounds every timed experiment splits its
// window into. The median round is reported, so a stretch hit by machine
// noise (CPU steal on a shared host, a compaction burst) costs one sample
// instead of corrupting whichever version drew it.
const rounds = 3

// median returns the element of xs whose key is the median.
func median[T any](xs []T, key func(T) float64) T {
	sorted := append([]T(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	return sorted[len(sorted)/2]
}

// drive runs nClients concurrent workers for window; each worker calls
// work(workerID) repeatedly — one call is one transaction attempt — and
// times it. The window is one continuous closed-loop run cut into rounds
// equal stretches; an attempt counts towards the round it finishes in,
// and one still in flight when the window closes counts nowhere, so no
// round's throughput is inflated by overshoot or diluted by a drain. The
// round with the median throughput is returned.
func drive(nClients int, window time.Duration, work func(worker int) error) Measurement {
	type round struct {
		lats    []time.Duration
		aborted uint64
	}
	var mu sync.Mutex
	var total [rounds]round

	var wg sync.WaitGroup
	start := time.Now()
	length := window / rounds
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local [rounds]round
			t0 := time.Now()
			for {
				err := work(w)
				end := time.Now()
				r := int(end.Sub(start) / length)
				if r >= rounds {
					break
				}
				if err != nil {
					local[r].aborted++
				} else {
					local[r].lats = append(local[r].lats, end.Sub(t0))
				}
				t0 = end
			}
			mu.Lock()
			for r := range total {
				total[r].lats = append(total[r].lats, local[r].lats...)
				total[r].aborted += local[r].aborted
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	ms := make([]Measurement, rounds)
	for r, t := range total {
		lats := t.lats
		m := Measurement{Committed: uint64(len(lats)), Aborted: t.aborted}
		m.Tps = float64(len(lats)) / length.Seconds()
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			var sum time.Duration
			for _, l := range lats {
				sum += l
			}
			m.AvgLatencyMs = float64(sum.Microseconds()) / float64(len(lats)) / 1000
			m.P99LatencyMs = float64(lats[len(lats)*99/100].Microseconds()) / 1000
		}
		ms[r] = m
	}
	return median(ms, func(m Measurement) float64 { return m.Tps })
}

// Table renders measurements as the paper-style rows: label, slowdown
// w.r.t. the first row, throughput, latency.
func Table(title string, ms []Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-28s %10s %12s %12s %12s\n", "version", "slowdown", "tps", "avg-lat(ms)", "p99-lat(ms)")
	if len(ms) == 0 {
		return b.String()
	}
	base := ms[0]
	for _, m := range ms {
		fmt.Fprintf(&b, "  %-28s %9.2fx %12.0f %12.2f %12.2f\n",
			m.Label, m.Slowdown(base), m.Tps, m.AvgLatencyMs, m.P99LatencyMs)
	}
	return b.String()
}

// SeriesTable renders an X-vs-multiple-series table (Fig. 8 style).
func SeriesTable(title, xName string, xs []string, series map[string][]float64, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-22s", xName)
	for _, x := range xs {
		fmt.Fprintf(&b, " %9s", x)
	}
	b.WriteByte('\n')
	for _, name := range order {
		fmt.Fprintf(&b, "  %-22s", name)
		for _, v := range series[name] {
			fmt.Fprintf(&b, " %9.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
