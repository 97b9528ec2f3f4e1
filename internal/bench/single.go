package bench

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"treaty/internal/core"
	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/lsm"
	"treaty/internal/seal"
	"treaty/internal/txn"
	"treaty/internal/workload"
)

// Single-node transaction experiments (Fig. 6: pessimistic, Fig. 7:
// optimistic) across the six system versions: RocksDB, Native Treaty,
// Native Treaty w/ Enc, Treaty w/o Enc (SCONE), Treaty w/ Enc (SCONE),
// Treaty w/ Enc w/ Stab. Workloads: TPC-C (10 warehouses) and YCSB
// (10 ops/txn, 1000 B values, uniform over 10 k keys) at 20%R and 80%R.

// SingleConfig tunes the single-node experiments.
type SingleConfig struct {
	// Clients is the number of concurrent drivers (default 16).
	Clients int
	// Duration per version (default 2s).
	Duration time.Duration
}

// withDefaults fills zero fields.
func (c SingleConfig) withDefaults() SingleConfig {
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// singleNode is a standalone engine + manager in one security mode.
type singleNode struct {
	mode core.SecurityMode
	rt   *enclave.Runtime
	db   *lsm.DB
	mgr  *txn.Manager
	dir  string
}

// newSingleNode builds the system under test for one mode.
func newSingleNode(mode core.SecurityMode) (*singleNode, error) {
	dir, err := os.MkdirTemp("", "treaty-single-")
	if err != nil {
		return nil, err
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		return nil, err
	}
	var rt *enclave.Runtime
	switch mode.EnclaveMode() {
	case enclave.ModeScone:
		rt = enclave.NewSconeRuntime()
	default:
		rt = enclave.NewNativeRuntime()
	}
	// Stabilization for single-node benches uses a latency-modelled
	// counter (the ROTE group's ~2 ms round) rather than a live group,
	// isolating the engine path.
	var counters lsm.CounterFactory
	if mode == core.ModeSconeEncStab {
		counters = func(string) durlog.TrustedCounter { return newLatencyCounter(2 * time.Millisecond) }
	}
	db, err := lsm.Open(lsm.Options{
		Dir:      dir,
		Level:    mode.StorageLevel(),
		Key:      key,
		Runtime:  rt,
		Counters: counters,
		// A larger memtable keeps the flush count per measurement window
		// small and equal across versions; with the default 4 MiB the
		// flush/compaction lottery dominates short windows.
		MemTableSize: 32 << 20,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mgr := txn.NewManager(txn.Config{
		DB:          db,
		LockTimeout: 2 * time.Second,
		WaitStable:  mode == core.ModeSconeEncStab,
	})
	return &singleNode{mode: mode, rt: rt, db: db, mgr: mgr, dir: dir}, nil
}

// close releases the node.
func (n *singleNode) close() {
	n.db.Close()
	os.RemoveAll(n.dir)
}

// latencyCounter stabilizes after a fixed delay, modelling the counter
// service round-trip without running replicas.
type latencyCounter struct {
	d time.Duration
}

// newLatencyCounter builds one.
func newLatencyCounter(d time.Duration) durlog.TrustedCounter {
	return &latencyCounter{d: d}
}

// Stabilize implements durlog.TrustedCounter.
func (c *latencyCounter) Stabilize(uint64) {}

// WaitStable implements durlog.TrustedCounter: the protocol's two rounds.
func (c *latencyCounter) WaitStable(uint64) error {
	time.Sleep(c.d)
	return nil
}

// StableValue implements durlog.TrustedCounter.
func (c *latencyCounter) StableValue() uint64 { return ^uint64(0) >> 1 }

// Failed and Fail implement durlog.TrustedCounter: this counter never fails.
func (c *latencyCounter) Failed() error { return nil }
func (c *latencyCounter) Fail(error)    {}

// singleBegin adapts the manager for the workload, selecting concurrency
// control.
func singleBegin(mgr *txn.Manager, optimistic bool) workload.Begin {
	if optimistic {
		return func() workload.Txn { return mgr.BeginOptimistic(nil) }
	}
	return func() workload.Txn { return mgr.BeginPessimistic(nil) }
}

// RunSingleYCSB measures all six versions under YCSB at readRatio.
// Versions are measured in interleaved rounds and the median round is
// reported, so machine noise (CPU steal on shared hosts) hits every
// version equally instead of corrupting whichever one drew the bad
// window.
func RunSingleYCSB(cfg SingleConfig, readRatio float64, optimistic bool) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	return runInterleaved(cfg, func(n *singleNode, roundCfg SingleConfig) (Measurement, error) {
		return runSingleYCSB(n, roundCfg, readRatio, optimistic)
	}, func(n *singleNode) error {
		return preloadYCSB(n, readRatio)
	})
}

// rounds is the number of interleaved measurement rounds per version.
const rounds = 3

// runInterleaved builds all six versions, preloads each once, then
// measures them round-robin, reporting each version's median round.
func runInterleaved(cfg SingleConfig, run func(*singleNode, SingleConfig) (Measurement, error), preload func(*singleNode) error) ([]Measurement, error) {
	modes := core.AllModes()
	nodes := make([]*singleNode, len(modes))
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.close()
			}
		}
	}()
	for i, mode := range modes {
		n, err := newSingleNode(mode)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
		if err := preload(n); err != nil {
			return nil, err
		}
	}
	roundCfg := cfg
	roundCfg.Duration = cfg.Duration / rounds
	if roundCfg.Duration < 300*time.Millisecond {
		roundCfg.Duration = 300 * time.Millisecond
	}
	samples := make([][]Measurement, len(modes))
	for r := 0; r < rounds; r++ {
		for i := range modes {
			// Settle accumulated LSM debt (flush + let compactions run)
			// so every version starts its round from comparable state.
			if err := nodes[i].db.Flush(); err != nil {
				return nil, err
			}
			time.Sleep(50 * time.Millisecond)
			m, err := run(nodes[i], roundCfg)
			if err != nil {
				return nil, err
			}
			samples[i] = append(samples[i], m)
		}
	}
	out := make([]Measurement, len(modes))
	for i, mode := range modes {
		m := medianByTps(samples[i])
		m.Label = mode.String()
		out[i] = m
	}
	return out, nil
}

// medianByTps picks the sample with the median throughput.
func medianByTps(ms []Measurement) Measurement {
	sorted := append([]Measurement(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Tps < sorted[j].Tps })
	return sorted[len(sorted)/2]
}

// preloadYCSB loads the key space into one node.
func preloadYCSB(n *singleNode, readRatio float64) error {
	gen := workload.NewYCSB(workload.YCSBConfig{ReadRatio: readRatio}, 1)
	keys, val := gen.LoadKeys()
	b := lsm.NewBatch()
	for i, k := range keys {
		b.Put(k, val)
		if i%2000 == 1999 {
			if _, _, err := n.db.Apply(b); err != nil {
				return err
			}
			b = lsm.NewBatch()
		}
	}
	_, _, err := n.db.Apply(b)
	return err
}

// runSingleYCSB drives one version for one round.
func runSingleYCSB(n *singleNode, cfg SingleConfig, readRatio float64, optimistic bool) (Measurement, error) {
	gens := make([]*workload.YCSB, cfg.Clients)
	for i := range gens {
		gens[i] = workload.NewYCSB(workload.YCSBConfig{ReadRatio: readRatio}, int64(50+i))
	}
	begin := singleBegin(n.mgr, optimistic)
	m := drive(cfg.Clients, cfg.Duration, func(w int) error {
		tx := begin()
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
	})
	return m, nil
}

// RunSingleTPCC measures all six versions under TPC-C (10 warehouses),
// interleaved rounds with median selection (see RunSingleYCSB).
func RunSingleTPCC(cfg SingleConfig, optimistic bool) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	return runInterleaved(cfg, func(n *singleNode, roundCfg SingleConfig) (Measurement, error) {
		return runSingleTPCC(n, roundCfg, optimistic)
	}, preloadTPCC)
}

// preloadTPCC bulk-loads the scaled TPC-C population into one node.
func preloadTPCC(n *singleNode) error {
	loader := workload.NewTPCC(TPCCScale(10), 3)
	b := lsm.NewBatch()
	count := 0
	loadTx := &batchLoaderTxn{db: n.db, b: b, count: &count}
	return loader.Load(func() workload.Txn { return loadTx }, 4000)
}

// runSingleTPCC drives one version for one round.
func runSingleTPCC(n *singleNode, cfg SingleConfig, optimistic bool) (Measurement, error) {
	scale := TPCCScale(10)
	drivers := make([]*workload.TPCC, cfg.Clients)
	for i := range drivers {
		drivers[i] = workload.NewTPCC(scale, int64(400+i))
	}
	begin := singleBegin(n.mgr, optimistic)
	m := drive(cfg.Clients, cfg.Duration, func(w int) error {
		d := drivers[w]
		home := 1 + (w % scale.Warehouses)
		err := d.Run(begin, d.NextType(), home)
		if errors.Is(err, workload.ErrAbortedByUser) {
			return nil
		}
		if errors.Is(err, txn.ErrLockTimeout) || errors.Is(err, txn.ErrConflict) {
			return err // counted as aborts
		}
		return err
	})
	return m, nil
}

// batchLoaderTxn adapts the engine's direct batch path to workload.Txn
// for loading.
type batchLoaderTxn struct {
	db    *lsm.DB
	b     *lsm.Batch
	count *int
}

// Get implements workload.Txn (loader never reads).
func (t *batchLoaderTxn) Get([]byte) ([]byte, bool, error) { return nil, false, nil }

// Put implements workload.Txn.
func (t *batchLoaderTxn) Put(key, value []byte) error {
	t.b.Put(key, value)
	*t.count++
	if *t.count%4000 == 0 {
		if _, _, err := t.db.Apply(t.b); err != nil {
			return err
		}
		t.b.Reset()
	}
	return nil
}

// Commit implements workload.Txn.
func (t *batchLoaderTxn) Commit() error {
	if t.b.Count() == 0 {
		return nil
	}
	_, _, err := t.db.Apply(t.b)
	t.b.Reset()
	return err
}

// Rollback implements workload.Txn.
func (t *batchLoaderTxn) Rollback() error {
	t.b.Reset()
	return nil
}

// PrintFig6 renders a pessimistic panel.
func PrintFig6(workloadName string, ms []Measurement) string {
	return Table(fmt.Sprintf("Figure 6: single-node pessimistic txns, %s", workloadName), ms)
}

// PrintFig7 renders an optimistic panel.
func PrintFig7(workloadName string, ms []Measurement) string {
	return Table(fmt.Sprintf("Figure 7: single-node optimistic txns, %s", workloadName), ms)
}
