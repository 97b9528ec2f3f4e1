package bench

import (
	"encoding/json"

	"treaty/internal/core"
	"treaty/internal/obs"
)

// Machine-readable metrics capture for benchmark runs: every measurement
// Run returns carries a per-node digest of the observability snapshot
// taken right before its cluster is torn down, so a run's throughput
// numbers come with the 2PC stage latencies, WAL traffic and enclave
// costs that explain them.

// StageLat is one 2PC stage's latency summary in milliseconds.
type StageLat struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// NodeDigest condenses one node's snapshot to the numbers the paper's
// evaluation discusses.
type NodeDigest struct {
	TxBegun     uint64 `json:"tx_begun"`
	TxCommitted uint64 `json:"tx_committed"`
	TxAborted   uint64 `json:"tx_aborted"`

	// Stages maps stage name ("prepare", "commit", ...) to its latency
	// histogram summary.
	Stages map[string]StageLat `json:"stages,omitempty"`

	StabilizeWaitP99Ms float64 `json:"stabilize_wait_p99_ms"`

	WALAppends uint64 `json:"wal_appends"`
	WALSyncs   uint64 `json:"wal_syncs"`

	// Write-path group commit (the Clog leader): appended coordinator
	// records, groups forced, and the per-group size distribution. A
	// ClogGroupP95 above 1 shows cross-transaction batching actually
	// engaged under the measured load.
	ClogAppends  uint64  `json:"clog_appends,omitempty"`
	ClogSyncs    uint64  `json:"clog_syncs,omitempty"`
	ClogGroupP50 float64 `json:"clog_group_p50,omitempty"`
	ClogGroupP95 float64 `json:"clog_group_p95,omitempty"`
	ClogGroupMax float64 `json:"clog_group_max,omitempty"`

	// Trusted-counter amortization: protocol rounds run, the per-round
	// batch-size distribution, and rounds per committed transaction
	// (below 1 means one ROTE round covered several commits, §VI).
	CounterRounds       uint64  `json:"counter_rounds,omitempty"`
	CounterBatchP95     float64 `json:"counter_batch_p95,omitempty"`
	CounterRoundsPerTxn float64 `json:"counter_rounds_per_txn,omitempty"`
	// Stabilize on demand: commit groups written and forced without a
	// round of their own (WAL outcome records; Clog prepare records).
	// They ride the next demanded round on the same counter.
	WALStabilizeDeferred  uint64 `json:"wal_stabilize_deferred,omitempty"`
	ClogStabilizeDeferred uint64 `json:"clog_stabilize_deferred,omitempty"`
	// BloomFilterRate is the fraction of filtered point reads (bloom
	// negatives / bloom checks), 0 when no SSTable was consulted.
	BloomFilterRate float64 `json:"bloom_filter_rate"`
	// CacheHitRate is the block cache hit fraction (hits / lookups), 0
	// when the cache was disabled or never consulted; CacheLookups
	// disambiguates those two cases.
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheLookups uint64  `json:"cache_lookups"`

	RPCRetries    uint64 `json:"rpc_retries"`
	WorldSwitches uint64 `json:"world_switches"`
	AsyncSyscalls uint64 `json:"async_syscalls"`

	// Replication shipping (the attested backup mirror), present only on
	// runs with replication enabled. ShipFailed above 0 means a stream
	// durably degraded during the measurement — the run's overhead number
	// no longer reflects the replicated write path and should be redone.
	ReplShipGroups  uint64 `json:"repl_ship_groups,omitempty"`
	ReplShipAcked   uint64 `json:"repl_ship_acked,omitempty"`
	ReplShipFailed  uint64 `json:"repl_ship_failed,omitempty"`
	ReplShipSkipped uint64 `json:"repl_ship_skipped,omitempty"`
	ReplRecvAcked   uint64 `json:"repl_recv_acked,omitempty"`
}

// ReplicaDigest condenses one counter replica's snapshot: what persisting
// its state cost the confirms it served.
type ReplicaDigest struct {
	Confirms       uint64  `json:"confirms"`
	JournalAppends uint64  `json:"journal_appends"`
	JournalBytes   int64   `json:"journal_bytes"`
	Compactions    uint64  `json:"compactions"`
	PersistP50Us   float64 `json:"persist_p50_us"`
	PersistP99Us   float64 `json:"persist_p99_us"`
}

// MetricsReport is the per-version report: one digest per node address
// and, on arms that run the counter service, one per replica address.
type MetricsReport struct {
	Label           string                   `json:"label"`
	Nodes           map[string]NodeDigest    `json:"nodes"`
	CounterReplicas map[string]ReplicaDigest `json:"counter_replicas,omitempty"`
}

// twopcStages are the stage-histogram suffixes digested into NodeDigest.
var twopcStages = []string{
	"begin", "execute", "prepare", "log-force",
	"counter-stabilize", "commit", "abort", "reclaim",
}

// DigestSnapshot condenses a node snapshot into a NodeDigest.
func DigestSnapshot(s obs.Snapshot) NodeDigest {
	d := NodeDigest{
		TxBegun:       s.Counter("twopc.tx.begun"),
		TxCommitted:   s.Counter("twopc.tx.committed"),
		TxAborted:     s.Counter("twopc.tx.aborted"),
		WALAppends:    s.Counter("lsm.wal.appends"),
		WALSyncs:      s.Counter("lsm.wal.syncs"),
		RPCRetries:    s.Counter("erpc.req.retries"),
		WorldSwitches: s.Counter("enclave.world_switches"),
		AsyncSyscalls: s.Counter("enclave.async_syscalls"),
		Stages:        make(map[string]StageLat),
	}
	const ms = 1e6 // histogram samples are nanoseconds
	for _, st := range twopcStages {
		h, ok := s.Histograms["twopc.stage."+st]
		if !ok || h.Count == 0 {
			continue
		}
		d.Stages[st] = StageLat{
			Count: h.Count,
			P50Ms: float64(h.P50) / ms, P95Ms: float64(h.P95) / ms, P99Ms: float64(h.P99) / ms,
		}
	}
	d.StabilizeWaitP99Ms = float64(s.Histograms["twopc.stabilize.wait_ns"].P99) / ms
	d.ClogAppends = s.Counter("twopc.clog.appends")
	d.ClogSyncs = s.Counter("twopc.clog.syncs")
	if h, ok := s.Histograms["twopc.clog.group_size"]; ok && h.Count > 0 {
		d.ClogGroupP50 = float64(h.P50)
		d.ClogGroupP95 = float64(h.P95)
		d.ClogGroupMax = float64(h.Max)
	}
	d.CounterRounds = s.Counter("counter.rounds")
	d.WALStabilizeDeferred = s.Counter("lsm.wal.stabilize_deferred")
	d.ClogStabilizeDeferred = s.Counter("twopc.clog.stabilize_deferred")
	if h, ok := s.Histograms["counter.batch.size"]; ok && h.Count > 0 {
		d.CounterBatchP95 = float64(h.P95)
	}
	if d.TxCommitted > 0 {
		d.CounterRoundsPerTxn = float64(d.CounterRounds) / float64(d.TxCommitted)
	}
	if checks := s.Counter("lsm.bloom.checks"); checks > 0 {
		d.BloomFilterRate = float64(s.Counter("lsm.bloom.negatives")) / float64(checks)
	}
	if lookups := s.Counter("lsm.cache.lookups"); lookups > 0 {
		d.CacheLookups = lookups
		d.CacheHitRate = float64(s.Counter("lsm.cache.hits")) / float64(lookups)
	}
	d.ReplShipGroups = s.Counter("repl.ship_groups")
	d.ReplShipAcked = s.Counter("repl.ship_acked")
	d.ReplShipFailed = s.Counter("repl.ship_failed")
	d.ReplShipSkipped = s.Counter("repl.ship_skipped")
	d.ReplRecvAcked = s.Counter("repl.recv_acked")
	return d
}

// CaptureMetrics digests every live node of a cluster.
func CaptureMetrics(label string, c *core.Cluster) *MetricsReport {
	r := &MetricsReport{Label: label, Nodes: make(map[string]NodeDigest)}
	for addr, s := range c.Snapshot() {
		r.Nodes[addr] = DigestSnapshot(s)
	}
	replicas := c.CounterSnapshot()
	if len(replicas) > 0 {
		r.CounterReplicas = make(map[string]ReplicaDigest, len(replicas))
	}
	for addr, s := range replicas {
		persist := s.Histograms["counter.replica.persist_ns"]
		r.CounterReplicas[addr] = ReplicaDigest{
			Confirms:       s.Counter("counter.replica.confirms"),
			JournalAppends: s.Counter("counter.replica.journal_appends"),
			JournalBytes:   s.Gauge("counter.replica.journal_bytes"),
			Compactions:    s.Counter("counter.replica.compactions"),
			PersistP50Us:   float64(persist.P50) / 1e3,
			PersistP99Us:   float64(persist.P99) / 1e3,
		}
	}
	return r
}

// ReportJSON renders measurement metrics reports as indented JSON.
func ReportJSON(ms []Measurement) ([]byte, error) {
	reports := make([]*MetricsReport, 0, len(ms))
	for _, m := range ms {
		if m.Metrics != nil {
			reports = append(reports, m.Metrics)
		}
	}
	return json.MarshalIndent(reports, "", "  ")
}
