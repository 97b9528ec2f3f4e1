package treaty

// Ablation benchmarks for the design choices DESIGN.md calls out:
// lock-table sharding, stabilization batching, and host-memory vs
// enclave-resident buffers (EPC pressure). Each compares configurations
// of the same module so the effect of one mechanism is isolated.
//
//	go test -bench=BenchmarkAblation -benchtime=1x

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"treaty/internal/bench"
	"treaty/internal/core"
	"treaty/internal/enclave"
	"treaty/internal/lsm"
	"treaty/internal/seal"
	"treaty/internal/txn"
	"treaty/internal/vfs"
)

// BenchmarkAblation_LockShards sweeps the lock-table shard count (§V-B:
// "TREATY runs with a big number of shards to avoid locking
// bottlenecks").
func BenchmarkAblation_LockShards(b *testing.B) {
	for _, shards := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			lt := txn.NewLockTable(shards, time.Second)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					key := fmt.Sprintf("key-%d", i%1000)
					if err := lt.Acquire(uint64(i+1), key, txn.LockExclusive, nil); err == nil {
						lt.Release(uint64(i+1), key)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkAblation_StabilizationBatching compares per-commit counter
// waits against the asynchronous batched interface: N commits that each
// wait individually vs N commits that share stabilization rounds.
func BenchmarkAblation_StabilizationBatching(b *testing.B) {
	const commits = 64
	const latency = 500 * time.Microsecond
	b.Run("batched-async", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr := newSlowCounter(latency)
			// All commits stabilize through one handle; the pump batches.
			done := make(chan error, commits)
			for c := 0; c < commits; c++ {
				v := uint64(c + 1)
				ctr.Stabilize(v)
				go func() { done <- ctr.WaitStable(v) }()
			}
			for c := 0; c < commits; c++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			ctr.close()
		}
	})
	b.Run("per-commit-round", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Every commit pays a full protocol round.
			for c := 0; c < commits; c++ {
				time.Sleep(latency)
			}
		}
	})
}

// BenchmarkAblation_HostVsEnclaveBuffers measures the EPC paging penalty
// of keeping large buffers in enclave memory instead of (encrypted) host
// memory — the reason message buffers and values live outside (§VII-D).
func BenchmarkAblation_HostVsEnclaveBuffers(b *testing.B) {
	const bufSize = 1 << 20
	for _, host := range []bool{true, false} {
		name := "host-memory"
		if !host {
			name = "enclave-memory"
		}
		b.Run(name, func(b *testing.B) {
			rt := enclave.NewRuntime(enclave.RuntimeConfig{
				Mode:      enclave.ModeScone,
				EPCBudget: 8 << 20, // small EPC: pressure shows quickly
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if host {
					rt.AllocHost(bufSize)
					rt.FreeHost(bufSize)
				} else {
					rt.AllocEnclave(bufSize)
					rt.TouchEnclave(bufSize)
					rt.FreeEnclave(bufSize)
				}
			}
			b.ReportMetric(float64(rt.Stats().PageFaults)/float64(b.N), "pagefaults/op")
		})
	}
}

// BenchmarkAblation_BlockCache compares the engine read path at the
// SCONE + encryption level with and without the authenticated block
// cache (read-heavy YCSB): a hit skips the host read, the integrity
// check, and the AES-GCM block decryption.
func BenchmarkAblation_BlockCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunBlockCacheAblation()
		if err != nil {
			b.Fatal(err)
		}
		if r.Hits == 0 {
			b.Fatalf("vacuous run: cache-on arm recorded zero hits (%d lookups)", r.Lookups)
		}
		b.Log(bench.PrintBlockCache(r))
		b.ReportMetric(r.OnTps, "tps-cache-on")
		b.ReportMetric(r.OffTps, "tps-cache-off")
		b.ReportMetric(r.Speedup, "speedup")
		b.ReportMetric(r.HitRate*100, "hit-%")
	}
}

// BenchmarkAblation_WritePathGroupCommit is the write-heavy bench-smoke
// panel: a short distributed YCSB 20%R run at full security, asserting
// the Clog group-commit pipeline is non-vacuous — coordinator records
// must actually flow through commit groups — and reporting the group
// size, fsync amortization, and counter rounds per committed transaction
// so write-path regressions are visible pre-merge.
func BenchmarkAblation_WritePathGroupCommit(b *testing.B) {
	for _, ms := range runPanels(b, "writepath", 0) {
		// Cluster totals, and the worst node's group-size distribution.
		var committed, rounds, appends, syncs uint64
		var groupP95, groupMax int64
		for _, s := range ms[0].Metrics {
			committed += s.Counter("twopc.tx.committed")
			rounds += s.Counter("counter.rounds")
			appends += s.Counter("twopc.clog.appends")
			syncs += s.Counter("twopc.clog.syncs")
			group := s.Histograms["twopc.clog.group_size"]
			groupP95 = max(groupP95, group.P95)
			groupMax = max(groupMax, group.Max)
		}
		if syncs == 0 || appends == 0 {
			b.Fatalf("vacuous run: no clog commit groups observed (appends=%d syncs=%d)", appends, syncs)
		}
		// Per-append forcing is exactly one sync per append. The p95 is
		// reported, not judged: its log2 buckets put it at 1 or 2 for the
		// same batching.
		if appends <= syncs {
			b.Fatalf("group commit degraded to per-append forces: %d appends in %d syncs (group-size p95 = %d, max %d)",
				appends, syncs, groupP95, groupMax)
		}
		roundsPerTxn := float64(rounds) / float64(committed)
		b.Logf("Write path: %.1f tps, clog groups=%d (p95=%d max=%d), appends/syncs=%d/%d, counter rounds/txn=%.3f",
			ms[0].Tps, syncs, groupP95, groupMax, appends, syncs, roundsPerTxn)
		b.ReportMetric(ms[0].Tps, "tps")
		b.ReportMetric(float64(groupP95), "group-p95")
		b.ReportMetric(float64(appends)/float64(syncs), "appends/fsync")
		b.ReportMetric(roundsPerTxn, "ctr-rounds/txn")
	}
}

// BenchmarkAblation_Replication measures the throughput price of
// per-shard attested backups: the same write-heavy distributed YCSB run
// at full security with and without commit-group shipping. The run is
// vacuous unless the replicated arm actually shipped and acked groups,
// and a degraded stream (any ship_failed) invalidates the overhead
// number, so both fail the benchmark loudly.
func BenchmarkAblation_Replication(b *testing.B) {
	for _, ms := range runPanels(b, "repl", 0) {
		off, on := ms[0], ms[1]
		var groups, acked, failed, recvAcked uint64
		for _, s := range on.Metrics {
			groups += s.Counter("repl.ship_groups")
			acked += s.Counter("repl.ship_acked")
			failed += s.Counter("repl.ship_failed")
			recvAcked += s.Counter("repl.recv_acked")
		}
		if acked == 0 {
			b.Fatalf("vacuous run: replicated arm acked zero commit groups (shipped=%d)", groups)
		}
		if failed > 0 {
			b.Fatalf("degraded run: %d ship failures latched a stream unpromotable mid-measurement", failed)
		}
		b.Logf("Replication: %.1f -> %.1f tps (%.2fx overhead), shipped groups=%d acked=%d failed=%d recv-acked=%d",
			off.Tps, on.Tps, on.Slowdown(off), groups, acked, failed, recvAcked)
		b.ReportMetric(off.Tps, "tps-repl-off")
		b.ReportMetric(on.Tps, "tps-repl-on")
		b.ReportMetric(on.Slowdown(off), "overhead")
		b.ReportMetric(float64(acked), "groups-shipped")
	}
}

// BenchmarkAblation_SecurityLevels isolates the storage-engine cost of
// each security level with no concurrency: one writer, sequential
// commits, each forced, on an in-memory filesystem.
func BenchmarkAblation_SecurityLevels(b *testing.B) {
	for _, mode := range []core.SecurityMode{core.ModeRocksDB, core.ModeNativeTreaty, core.ModeNativeTreatyEnc} {
		b.Run(mode.String(), func(b *testing.B) {
			key, err := seal.NewRandomKey()
			if err != nil {
				b.Fatal(err)
			}
			db, err := lsm.Open(lsm.Options{Dir: "/db", FS: vfs.NewMemFS(), Level: mode.Policy().Level, Key: key})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			value := make([]byte, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := lsm.NewBatch()
				batch.Put(fmt.Appendf(nil, "key-%08d", i), value)
				if _, _, err := db.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_NetworkSecurity isolates the RPC-layer cost of
// sealing: the Fig. 4 protocol skeleton on native hardware with and
// without the secure message format.
func BenchmarkAblation_NetworkSecurity(b *testing.B) {
	for _, arm := range bench.NetArms()[:2] { // native: plain, sealed
		b.Run(sanitize(arm.Label), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runs, err := bench.RunFig4(bench.Fig4Config{Clients: 8, Duration: 300 * time.Millisecond, OpsPerTxn: 4}, []bench.NetArm{arm})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(runs[0].Tps, "tps")
			}
		})
	}
}

// slowCounter stabilizes values after a latency, batching all pending
// values into one "round" — a miniature of the counter client's pump.
type slowCounter struct {
	latency time.Duration
	done    chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	pending uint64
	stable  uint64
}

func newSlowCounter(latency time.Duration) *slowCounter {
	c := &slowCounter{latency: latency, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.pump()
	return c
}

func (c *slowCounter) pump() {
	for {
		c.mu.Lock()
		for c.pending <= c.stable {
			select {
			case <-c.done:
				c.mu.Unlock()
				return
			default:
			}
			c.cond.Wait()
		}
		target := c.pending
		c.mu.Unlock()
		time.Sleep(c.latency) // one protocol round covers the whole batch
		c.mu.Lock()
		if target > c.stable {
			c.stable = target
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

func (c *slowCounter) Stabilize(v uint64) {
	c.mu.Lock()
	if v > c.pending {
		c.pending = v
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

func (c *slowCounter) WaitStable(v uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.stable < v {
		c.cond.Wait()
	}
	return nil
}

func (c *slowCounter) close() {
	close(c.done)
	c.cond.Broadcast()
}
