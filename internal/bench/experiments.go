package bench

import (
	"fmt"
	"time"

	"treaty/internal/core"
	"treaty/internal/simnet"
	"treaty/internal/workload"
)

// Experiment is one named entry of the evaluation and the panels it
// prints.
type Experiment struct {
	// Name selects the experiment (treaty-bench -exp).
	Name   string
	Panels []Spec
}

// Experiments lists every experiment Run measures. cmd/treaty-bench, the
// root benchmarks and the tier-1 shape test all range over it, so a
// panel added here is runnable, benchmarked and smoke-tested without
// being named anywhere else.
var Experiments = []Experiment{
	// Fig. 3: distributed TPC-C. The paper observes the 10-warehouse
	// configuration saturating at 10-16 clients (W-W conflicts); piling
	// on more only thrashes the lock tables. TPC-C's contention makes
	// its short-run ordering a lottery, so no shape is declared.
	{Name: "fig3", Panels: []Spec{
		distPanel("Figure 3", "TPC-C 10W", Spec{Warehouses: 10, Clients: 16}),
		distPanel("Figure 3", "TPC-C 100W", Spec{Warehouses: 100, Clients: 32}),
	}},
	// Fig. 5: distributed YCSB, write-heavy and read-heavy. Both
	// encrypted versions must land behind the native store.
	{Name: "fig5", Panels: []Spec{
		distPanel("Figure 5", "YCSB 20%R", Spec{YCSB: ycsb(0.2), Clients: 32, SlowerFrom: 2}),
		distPanel("Figure 5", "YCSB 80%R", Spec{YCSB: ycsb(0.8), Clients: 32, SlowerFrom: 2}),
	}},
	// Fig. 6 and 7: single-node pessimistic and optimistic transactions
	// (the paper evaluates OCC on the read-heavy YCSB mix only). The
	// stabilized version waits a counter round per commit, so under YCSB
	// it must be decisively slower than the native baseline even in a
	// short, noisy run.
	{Name: "fig6", Panels: []Spec{
		nodePanel("Figure 6", "pessimistic", "TPC-C (10W)", Spec{Txn: Pessimistic, Warehouses: 10}),
		nodePanel("Figure 6", "pessimistic", "YCSB 20%R", Spec{Txn: Pessimistic, YCSB: ycsb(0.2), SlowerFrom: 5}),
		nodePanel("Figure 6", "pessimistic", "YCSB 80%R", Spec{Txn: Pessimistic, YCSB: ycsb(0.8), SlowerFrom: 5}),
	}},
	{Name: "fig7", Panels: []Spec{
		nodePanel("Figure 7", "optimistic", "TPC-C (10W)", Spec{Txn: Optimistic, Warehouses: 10}),
		nodePanel("Figure 7", "optimistic", "YCSB 80%R", Spec{Txn: Optimistic, YCSB: ycsb(0.8), SlowerFrom: 5}),
	}},
	// Horizontal scaling (beyond the paper's figures): the same read-heavy
	// offered load against growing clusters. Treaty partitions the key
	// space by hash slot, so every node added brings its own link and
	// engine; with per-machine bandwidth as the binding resource — the
	// paper's testbed gives each machine one 40 GbE port — aggregate
	// throughput must grow with the node count. Clients, value size and
	// mix are held fixed so the curve isolates server-side capacity. The
	// fabric is scaled down the way the TEE cost model scales down CPU:
	// per-link bandwidth low enough that the smallest cluster saturates
	// its links well below the host's compute ceiling. Values are 2 KiB so
	// transfer time, not per-message overhead, dominates the wire cost
	// (link transit is virtual time — arithmetic, not scheduler noise); 8
	// ops keep transactions multi-shard at every size; 2 workers keep the
	// per-node idle-scheduler tax low; and the mode is Treaty w/ Enc on
	// native hardware because the SCONE cost model burns real CPU, which
	// would cap every size at the same compute ceiling. A transaction
	// takes most of a second on this fabric, hence the long window. The
	// slowdown column reads as relative capacity: rows below 1.00x are
	// faster than the smallest cluster.
	{Name: "scaling", Panels: []Spec{{
		Title: "Scaling: YCSB 90%R, Native Treaty w/ Enc, 48 clients (vs smallest cluster)",
		Arms: []Arm{
			{Label: "3 nodes", Mode: core.ModeNativeTreatyEnc, Nodes: 3},
			{Label: "5 nodes", Mode: core.ModeNativeTreatyEnc, Nodes: 5},
			{Label: "9 nodes", Mode: core.ModeNativeTreatyEnc, Nodes: 9},
		},
		YCSB:    workload.YCSBConfig{ReadRatio: 0.9, ValueSize: 2048, OpsPerTxn: 8},
		Link:    simnet.LinkConfig{Latency: 200 * time.Microsecond, BandwidthBps: 150 << 10},
		Workers: 2,
		Clients: 48,
		Window:  6 * time.Second,
	}}},
	// Replication ablation: the write-heavy Fig. 5 run at full security
	// without and with per-shard attested backups. The delta is the price
	// of shipping every commit group to its mirror inside the group-commit
	// critical section (between the fsync and the counter stabilization).
	{Name: "repl", Panels: []Spec{{
		Title: "Replication ablation: YCSB 20%R, full security, attested backups off/on",
		Arms: []Arm{
			{Label: core.ModeSconeEncStab.String(), Mode: core.ModeSconeEncStab, Nodes: 3},
			{Label: "+ repl", Mode: core.ModeSconeEncStab, Nodes: 3, Replicate: true},
		},
		YCSB:    ycsb(0.2),
		Link:    hostLink,
		Workers: 8,
		Clients: 96,
		Window:  3 * time.Second,
	}}},
	// Write-path smoke: the same run with enough clients that Clog commit
	// groups and counter rounds batch; the evidence is in the arm's
	// metrics digest (group-size p95, appends per fsync, rounds per txn).
	{Name: "writepath", Panels: []Spec{{
		Title:   "Write path: YCSB 20%R, full security, 192 clients",
		Arms:    versions(3, core.ModeSconeEncStab),
		YCSB:    ycsb(0.2),
		Link:    hostLink,
		Workers: 8,
		Clients: 192,
		Window:  4 * time.Second,
	}}},
}

// hostLink is the figure panels' fabric. Latency is left at zero:
// goroutine handoffs on the measurement host already exceed the paper's
// switch latency, and OS timers cannot model tens of microseconds
// faithfully.
var hostLink = simnet.LinkConfig{BandwidthBps: 5 << 30}

// ycsb is the paper's YCSB (10 ops/txn, 1000 B values, uniform over
// 10 k keys) at the given read ratio.
func ycsb(readRatio float64) workload.YCSBConfig {
	return workload.YCSBConfig{ReadRatio: readRatio}
}

// versions returns one arm per mode, labelled by the mode.
func versions(nodes int, modes ...core.SecurityMode) []Arm {
	arms := make([]Arm, len(modes))
	for i, m := range modes {
		arms[i] = Arm{Label: m.String(), Mode: m, Nodes: nodes}
	}
	return arms
}

// distPanel completes a distributed-transaction panel: a 3-node cluster
// in the paper's four versions — DS-RocksDB (native), Treaty w/o Enc,
// Treaty w/ Enc, Treaty w/ Enc w/ Stab — driven for 2 s each.
func distPanel(figure, name string, s Spec) Spec {
	s.Title = fmt.Sprintf("%s: distributed txns, %s (slowdown w.r.t. DS-RocksDB)", figure, name)
	s.Arms = versions(3, core.ModeRocksDB, core.ModeSconeNoEnc, core.ModeSconeEnc, core.ModeSconeEncStab)
	s.Arms[0].Label = "DS-RocksDB"
	s.Link, s.Workers, s.Window = hostLink, 8, 2*time.Second
	return s
}

// nodePanel completes a single-node panel: the six system versions, each
// a one-node cluster driven through its local transaction manager by 16
// clients for 6 s. The local path isolates the engine: it forces the WAL
// and MANIFEST and never the Clog. The window is three times the
// distributed panels' because a round (a third of it; a sixtieth at tier-1
// scale) has to span the engine's background cycle: at these write rates
// a memtable flush every 100-250 ms and, every fourth flush, an L0
// compaction that halves throughput for 100-200 ms — more than the
// counter round per commit costs the stabilized version (about 1.3x
// with tier-1's 4 clients; 16 clients share the rounds and tie).
func nodePanel(figure, cc, name string, s Spec) Spec {
	s.Title = fmt.Sprintf("%s: single-node %s txns, %s", figure, cc, name)
	s.Arms = versions(1, core.AllModes()...)
	s.Workers, s.Clients, s.Window = 1, 16, 6*time.Second
	return s
}
