package bench

import (
	"errors"
	"fmt"
	"time"

	"treaty/internal/core"
	"treaty/internal/lsm"
	"treaty/internal/simnet"
	"treaty/internal/vfs"
	"treaty/internal/workload"
)

// Every cluster panel of the evaluation is the same measurement: N
// system versions, one YCSB or TPC-C workload, throughput and latency
// reported against the first row. Spec says what differs between
// panels; Run is the one place that boots, loads, drives, snapshots and
// stops a cluster.

// Txn selects the transaction path a panel drives.
type Txn int

const (
	// Distributed drives 2PC through every node's coordinator, clients
	// spread round-robin over the nodes (Fig. 3 and 5).
	Distributed Txn = iota
	// Pessimistic and Optimistic drive a node's local transaction
	// manager, bypassing 2PC, routing and the op-path RPCs (Fig. 6 and 7;
	// their arms are one-node clusters).
	Pessimistic
	Optimistic
)

// Arm is one row of a panel: a system version.
type Arm struct {
	// Label is the row's legend entry.
	Label string
	// Mode, Nodes and Replicate configure the cluster under test.
	Mode      core.SecurityMode
	Nodes     int
	Replicate bool
}

// Spec is one panel.
type Spec struct {
	// Title heads the printed table.
	Title string
	// Arms are the rows, in figure order; the first is the baseline the
	// slowdown column is relative to.
	Arms []Arm
	// Warehouses above zero selects TPC-C at that scale; otherwise the
	// workload is YCSB as configured (zero fields are the paper's: 10
	// ops/txn, 1000 B values, uniform over 10 k keys).
	Warehouses int
	YCSB       workload.YCSBConfig
	// Txn is the transaction path.
	Txn Txn
	// Link is the inter-node fabric and Workers each node's scheduler
	// size.
	Link    simnet.LinkConfig
	Workers int
	// Clients is the number of concurrent closed-loop drivers.
	Clients int
	// Window is the measured time per arm, split into rounds.
	Window time.Duration
	// SlowerFrom, when above zero, declares the panel's shape: every arm
	// from that index on measures slower than the first. The tier-1
	// shape test holds each panel to what it declares.
	SlowerFrom int
}

// Run measures every arm of s in order and returns one Measurement per
// arm: the median round, labelled, with its nodes' metrics snapshots.
// Arms run one after the other, each on a freshly booted cluster that is
// stopped before the next boots: an idle cluster's schedulers still wake
// and charge world switches, which on a small host would tax whichever
// arm is being measured.
func Run(s Spec) ([]Measurement, error) {
	out := make([]Measurement, 0, len(s.Arms))
	for _, arm := range s.Arms {
		m, err := runArm(s, arm)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arm.Label, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// runArm boots one arm's cluster, preloads it, measures the rounds and
// tears it down. Every node stores to memory: a force then costs what it
// copies (MemFS.Sync copies only the bytes written since the last one)
// and its charged syscall, not the fsync latency of whatever disk the
// host has, so the panels' orderings rest on what the versions compute.
func runArm(s Spec, arm Arm) (m Measurement, err error) {
	opts := core.ClusterOptions{
		Nodes:     arm.Nodes,
		Mode:      arm.Mode,
		Replicate: arm.Replicate,
		Link:      s.Link,
		// Short lock timeout: TPC-C's hot warehouse/district rows rely
		// on timeouts for deadlock resolution; long timeouts turn
		// contention into multi-second stalls.
		LockTimeout: 250 * time.Millisecond,
		Workers:     s.Workers,
		Seed:        21,
		NodeFS:      func(int) vfs.FS { return vfs.NewMemFS() },
	}
	c, err := core.NewCluster(opts)
	if err != nil {
		return m, err
	}
	defer func() { err = errors.Join(err, c.Stop()) }()

	if err := preload(c, s); err != nil {
		return m, fmt.Errorf("preload: %w", err)
	}
	m = drive(s.Clients, s.Window, s.work(c))
	m.Label = arm.Label
	m.Metrics = c.Snapshot()
	return m, nil
}

// work builds the transaction one client attempt runs against c.
func (s Spec) work(c *core.Cluster) func(worker int) error {
	begin := func(n *core.Node) workload.Txn { return n.Begin(nil) }
	switch s.Txn {
	case Pessimistic:
		begin = func(n *core.Node) workload.Txn { return n.Manager().BeginPessimistic(nil) }
	case Optimistic:
		begin = func(n *core.Node) workload.Txn { return n.Manager().BeginOptimistic(nil) }
	}
	begins := make([]workload.Begin, s.Clients)
	for w := range begins {
		n := c.Node(w % c.Nodes())
		begins[w] = func() workload.Txn { return begin(n) }
	}
	if s.Warehouses > 0 {
		drivers := make([]*workload.TPCC, s.Clients)
		for w := range drivers {
			drivers[w] = workload.NewTPCC(tpccScale(s.Warehouses), int64(100+w))
		}
		return func(w int) error {
			d := drivers[w]
			err := d.Run(begins[w], d.NextType(), 1+w%s.Warehouses)
			if errors.Is(err, workload.ErrAbortedByUser) {
				return nil // the spec-mandated rollback counts as success
			}
			return err
		}
	}
	gens := make([]*workload.YCSB, s.Clients)
	for w := range gens {
		gens[w] = workload.NewYCSB(s.YCSB, int64(100+w))
	}
	return func(w int) error {
		tx := begins[w]()
		for _, op := range gens[w].NextTxn() {
			if op.Read {
				if _, _, err := tx.Get(op.Key); err != nil {
					tx.Rollback()
					return err
				}
			} else if err := tx.Put(op.Key, op.Value); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit()
	}
}

// tpccScale is the scaled-down-population TPC-C used by the harness: the
// warehouse/district structure (and therefore the contention profile and
// the remote-transaction probabilities) matches the paper; row
// populations are reduced so loading fits a benchmark run.
func tpccScale(warehouses int) workload.TPCCConfig {
	return workload.TPCCConfig{
		Warehouses:            warehouses,
		DistrictsPerWarehouse: 10,
		CustomersPerDistrict:  60,
		Items:                 1000,
	}
}

// loadBatch is the number of rows loaded between two Commits.
const loadBatch = 2000

// preload bulk-loads the panel's data set. Loading through 2PC at full
// population would dominate the run, so rows go through each owner's
// engine directly.
func preload(c *core.Cluster, s Spec) error {
	l := &loader{
		owner:   c.Node(0).Shard().View().Owner,
		nodes:   make(map[string]*core.Node, c.Nodes()),
		batches: make(map[*core.Node]*lsm.Batch, c.Nodes()),
	}
	for i := 0; i < c.Nodes(); i++ {
		l.nodes[c.Node(i).Addr()] = c.Node(i)
	}
	if err := s.fill(l); err != nil {
		return err
	}
	// Push the preload into SSTables: a memtable-resident key space would
	// serve every measured read without touching the block path (or the
	// cache), making the read-heavy panels storage-blind.
	for i := 0; i < c.Nodes(); i++ {
		if err := c.Node(i).DB().Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fill writes the panel's data set through l.
func (s Spec) fill(l *loader) error {
	if s.Warehouses > 0 {
		return workload.NewTPCC(tpccScale(s.Warehouses), 3).Load(func() workload.Txn { return l }, loadBatch)
	}
	keys, val := workload.NewYCSB(s.YCSB, 1).LoadKeys()
	for i, k := range keys {
		if err := l.Put(k, val); err != nil {
			return err
		}
		if i%loadBatch == loadBatch-1 {
			if err := l.Commit(); err != nil {
				return err
			}
		}
	}
	return l.Commit()
}

// loader is the preloader's write-only pseudo-transaction. It routes
// each put exactly as the live cluster routes it — through the shard map
// the nodes enforce; a loader with its own hash would place keys on
// nodes the participants refuse to serve — into per-node batches that
// Commit applies.
type loader struct {
	owner   func(key []byte) string
	nodes   map[string]*core.Node
	batches map[*core.Node]*lsm.Batch
}

// Get implements workload.Txn (a loader never reads).
func (l *loader) Get([]byte) ([]byte, bool, error) { return nil, false, nil }

// Put implements workload.Txn.
func (l *loader) Put(key, value []byte) error {
	n, ok := l.nodes[l.owner(key)]
	if !ok {
		return fmt.Errorf("key %q routed to unknown node %q", key, l.owner(key))
	}
	b := l.batches[n]
	if b == nil {
		b = lsm.NewBatch()
		l.batches[n] = b
	}
	b.Put(key, value)
	return nil
}

// Commit implements workload.Txn.
func (l *loader) Commit() error {
	for n, b := range l.batches {
		if b.Count() == 0 {
			continue
		}
		if _, _, err := n.DB().Apply(b); err != nil {
			return err
		}
		b.Reset()
	}
	return nil
}

// Rollback implements workload.Txn.
func (l *loader) Rollback() error {
	for _, b := range l.batches {
		b.Reset()
	}
	return nil
}
