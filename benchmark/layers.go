package main

import (
	"treaty/internal/obs"
	"treaty/internal/simnet"
)

// metric is one reported number. n is the sample count behind a
// percentile (0: not a percentile).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// layerSnap is a cut of every counter the program already exports,
// summed over the nodes, plus the benchmark's own file-system counters.
type layerSnap struct {
	counters map[string]uint64
	hists    map[string][]obs.HistSnapshot // one per node
	net      simnet.Stats
	io       ioSample
}

func (r *rig) snapLayers() *layerSnap {
	s := &layerSnap{
		counters: make(map[string]uint64),
		hists:    make(map[string][]obs.HistSnapshot),
		net:      r.cluster.Net().Stats(),
		io:       sampleIO(r.io),
	}
	for _, node := range r.cluster.Snapshot() {
		for name, v := range node.Counters {
			s.counters[name] += v
		}
		for name, h := range node.Histograms {
			s.hists[name] = append(s.hists[name], h)
		}
	}
	return s
}

// histP50 is the count-weighted mean of the nodes' p50s. The program's
// histograms are cumulative since boot with power-of-two buckets and
// export no bucket counts, so a window's own median cannot be taken;
// warm-up and both windows run the same workload, so the since-boot
// median stands in for it. The sample count is the since-boot total.
func (s *layerSnap) histP50(name string) (p50 float64, n int) {
	var weighted float64
	var count uint64
	for _, h := range s.hists[name] {
		weighted += float64(h.P50) * float64(h.Count)
		count += h.Count
	}
	if count == 0 {
		return 0, 0
	}
	return weighted / float64(count), int(count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const nsPerMs = 1e6

// layerMetrics derives every per-layer metric of one workload from its
// traced window w and the untraced window u that preceded it on the same
// cluster. "per txn" divides a counter's advance over the traced window
// by the transactions committed in it.
func layerMetrics(u, w *window) []metric {
	var out []metric
	// addP adds a percentile with its sample count, add anything else.
	addP := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, n: n})
	}
	add := func(name, unit string, v float64) { addP(name, unit, v, 0) }
	txns := float64(w.committed())
	delta := func(name string) float64 { return float64(w.after.counters[name] - w.before.counters[name]) }
	perTxn := func(name, counter string) { add(name, "1/txn", ratio(delta(counter), txns)) }

	// client: the benchmark's own spans.
	ct := w.spans.aggregate()
	p50ms := func(name string, s []int64) { addP(name, "ms", percentile(s, 0.50)/nsPerMs, len(s)) }
	p50ms("client.op_get_ms_p50", ct.get)
	p50ms("client.op_put_ms_p50", ct.put)
	p50ms("client.execute_ms_p50", ct.execute)
	p50ms("client.commit_ms_p50", ct.commit)
	p50ms("client.self_ms_p50", ct.self)
	addP("client.txn_ms_p99", "ms", percentile(ct.txns, 0.99)/nsPerMs, len(ct.txns))
	add("trace.overhead_share", "share", 1-ratio(txns/w.seconds, float64(u.committed())/u.seconds))

	// twopc: the coordinators' stage traces and participant/Clog counters.
	var stageSum float64
	for _, st := range twopcStages {
		d := w.stages.sorted(st)
		p50 := percentile(d, 0.50) / nsPerMs
		stageSum += p50
		addP("twopc.stage_"+stageSlug(st)+"_ms_p50", "ms", p50, len(d))
	}
	perTxn("twopc.prepares_per_txn", "twopc.part.prepares")
	perTxn("twopc.readonly_votes_per_txn", "twopc.part.readonly_votes")
	perTxn("twopc.clog_appends_per_txn", "twopc.clog.appends")
	perTxn("twopc.clog_syncs_per_txn", "twopc.clog.syncs")
	v, n := w.after.histP50("twopc.clog.group_size")
	addP("twopc.clog_group_size_p50", "count", v, n)
	add("budget.stage_sum_share", "share", ratio(stageSum, percentile(ct.txns, 0.50)/nsPerMs))

	// erpc / simnet. erpc.* covers the node endpoints; the counter
	// service's own endpoints show up in counter.* and simnet.*.
	perTxn("erpc.requests_per_txn", "erpc.req.enqueued")
	v, n = w.after.histP50("erpc.call.latency_ns")
	addP("erpc.call_ms_p50", "ms", v/nsPerMs, n)
	perTxn("erpc.retries_per_txn", "erpc.req.retries")
	add("simnet.packets_per_txn", "1/txn", ratio(float64(w.after.net.Delivered-w.before.net.Delivered), txns))
	add("simnet.bytes_per_txn", "B/txn", ratio(float64(w.after.net.BytesDelivered-w.before.net.BytesDelivered), txns))

	// enclave / counter.
	perTxn("enclave.world_switches_per_txn", "enclave.world_switches")
	perTxn("enclave.syscalls_per_txn", "enclave.async_syscalls")
	add("enclave.paging_penalty_ms_per_txn", "ms/txn", ratio(delta("enclave.paging_penalty_ns")/nsPerMs, txns))
	perTxn("counter.rounds_per_txn", "counter.rounds")
	v, n = w.after.histP50("counter.round.latency_ns")
	addP("counter.round_ms_p50", "ms", v/nsPerMs, n)
	v, n = w.after.histP50("counter.batch.size")
	addP("counter.batch_size_p50", "count", v, n)

	// lsm.
	perTxn("lsm.wal_appends_per_txn", "lsm.wal.appends")
	perTxn("lsm.wal_syncs_per_txn", "lsm.wal.syncs")
	v, n = w.after.histP50("lsm.commit.group_size")
	addP("lsm.commit_group_size_p50", "count", v, n)
	add("lsm.flushes", "count", delta("lsm.flushes"))
	add("lsm.compactions", "count", delta("lsm.compactions"))
	add("lsm.cache_hit_share", "share", ratio(delta("lsm.cache.hits"), delta("lsm.cache.lookups")))
	perTxn("lsm.cache_evictions_per_txn", "lsm.cache.evictions")
	add("lsm.bloom_negative_share", "share", ratio(delta("lsm.bloom.negatives"), delta("lsm.bloom.checks")))

	// vfs: the counting decorator, whole and by file class.
	io := w.after.io.sub(w.before.io)
	wr, rd, sy := io.total()
	add("vfs.syncs_per_txn", "1/txn", ratio(float64(sy), txns))
	add("vfs.bytes_written_per_txn", "B/txn", ratio(float64(wr), txns))
	add("vfs.bytes_read_per_txn", "B/txn", ratio(float64(rd), txns))
	add("vfs.write_amp", "ratio", ratio(float64(wr), float64(w.putBytes)))
	for _, c := range []fileClass{classWAL, classClog, classSST, classManifest} {
		p := "vfs." + classNames[c] + "."
		add(p+"syncs_per_txn", "1/txn", ratio(float64(io[c].syncs), txns))
		add(p+"bytes_written_per_txn", "B/txn", ratio(float64(io[c].writeBytes), txns))
		add(p+"bytes_read_per_txn", "B/txn", ratio(float64(io[c].readBytes), txns))
		add(p+"write_amp", "ratio", ratio(float64(io[c].writeBytes), float64(w.putBytes)))
	}
	return out
}

// stageSlug turns a stage name into a metric-name segment.
func stageSlug(s obs.Stage) string {
	switch s {
	case obs.StageLogForce:
		return "log_force"
	case obs.StageStabilize:
		return "counter_stabilize"
	}
	return string(s)
}

// endToEnd derives the six end-to-end metrics from an untraced window and
// the set-up times that preceded it (setup_s is their median).
func endToEnd(u *window, setupTimes []float64) []metric {
	n := u.committed()
	_, setupS, _ := quartiles(setupTimes)
	return []metric{
		{name: "tps", unit: "1/s", value: float64(n) / u.seconds},
		{name: "txn_ms_p50", unit: "ms", value: percentile(u.txnNs, 0.50) / nsPerMs, n: n},
		{name: "txn_ms_p90", unit: "ms", value: percentile(u.txnNs, 0.90) / nsPerMs, n: n},
		{name: "commit_ms_p50", unit: "ms", value: percentile(u.commitNs, 0.50) / nsPerMs, n: n},
		{name: "committed_share", unit: "share", value: ratio(float64(n), float64(u.attempted))},
		{name: "setup_s", unit: "s", value: setupS, n: len(setupTimes)},
	}
}
