package bench

import (
	"fmt"
	"math/rand"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/lsm"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
	"treaty/internal/workload"
)

// Block-cache ablation: the engine's read path at the paper's most
// expensive storage level (SCONE + encryption) with and without the
// authenticated block cache. A cache hit skips the host read, the
// integrity check, and the AES-GCM block decryption — the ablation
// isolates exactly that saving under a read-heavy YCSB mix.

// The ablation's shape: 20 k preloaded keys of 256 B values, then 30 k
// operations per arm at the paper's read-heavy YCSB point, with the
// engine's default cache size in the cache-on arm.
const (
	blockCacheKeys      = 20000
	blockCacheValueSize = 256
	blockCacheOps       = 30000
	blockCacheReadRatio = 0.8
)

// BlockCacheResult reports both arms of the ablation.
type BlockCacheResult struct {
	OnTps, OffTps, Speedup float64
	// HitRate, Lookups and Hits come from the cache-on arm; Hits > 0 is
	// the non-vacuity check (BenchmarkAblation_BlockCache).
	HitRate       float64
	Lookups, Hits uint64
}

// RunBlockCacheAblation measures the read path with the cache enabled
// and disabled and returns both throughputs.
func RunBlockCacheAblation() (BlockCacheResult, error) {
	var res BlockCacheResult
	for _, on := range []bool{true, false} {
		tps, reg, err := runBlockCacheArm(on)
		if err != nil {
			return BlockCacheResult{}, err
		}
		if on {
			s := reg.Snapshot()
			res.OnTps = tps
			res.Lookups = s.Counter("lsm.cache.lookups")
			res.Hits = s.Counter("lsm.cache.hits")
			if res.Lookups > 0 {
				res.HitRate = float64(res.Hits) / float64(res.Lookups)
			}
		} else {
			res.OffTps = tps
		}
	}
	if res.OffTps > 0 {
		res.Speedup = res.OnTps / res.OffTps
	}
	return res, nil
}

// runBlockCacheArm measures one arm: preload, flush so reads hit
// SSTables, then a fixed op count of the read-heavy mix.
func runBlockCacheArm(cacheOn bool) (tps float64, reg *obs.Registry, err error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return 0, nil, err
	}
	reg = obs.NewRegistry()
	cacheBytes := int64(0) // the engine's default
	if !cacheOn {
		cacheBytes = -1
	}
	db, err := lsm.Open(lsm.Options{
		Dir:             "/db",
		FS:              vfs.NewMemFS(),
		Level:           seal.LevelEncrypted,
		Key:             key,
		Runtime:         enclave.NewSconeRuntime(),
		BlockCacheBytes: cacheBytes,
		Metrics:         reg,
		// One big memtable: the preload flushes once, so both arms read
		// the same SSTable shape instead of racing compaction.
		MemTableSize: 64 << 20,
	})
	if err != nil {
		return 0, nil, err
	}
	defer db.Close()

	gen := workload.NewYCSB(workload.YCSBConfig{ReadRatio: blockCacheReadRatio, ValueSize: blockCacheValueSize, Keys: blockCacheKeys}, 1)
	keys, val := gen.LoadKeys()
	b := lsm.NewBatch()
	for i, k := range keys {
		b.Put(k, val)
		if i%2000 == 1999 {
			if _, _, aerr := db.Apply(b); aerr != nil {
				return 0, nil, aerr
			}
			b = lsm.NewBatch()
		}
	}
	if _, _, err := db.Apply(b); err != nil {
		return 0, nil, err
	}
	// Push the population into SSTables: a memtable-resident key space
	// never touches the block path at all.
	if err := db.Flush(); err != nil {
		return 0, nil, err
	}

	rng := rand.New(rand.NewSource(7))
	start := time.Now()
	for op := 0; op < blockCacheOps; op++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < blockCacheReadRatio {
			if _, _, _, gerr := db.Get(k, db.LatestSeq()); gerr != nil {
				return 0, nil, gerr
			}
		} else {
			wb := lsm.NewBatch()
			wb.Put(k, val)
			if _, _, aerr := db.Apply(wb); aerr != nil {
				return 0, nil, aerr
			}
		}
	}
	elapsed := time.Since(start)
	return blockCacheOps / elapsed.Seconds(), reg, nil
}

// PrintBlockCache renders the ablation result.
func PrintBlockCache(r BlockCacheResult) string {
	return fmt.Sprintf(
		"Ablation: authenticated block cache (YCSB read-heavy, SCONE w/ Enc)\n"+
			"  cache on : %10.0f tps  (hit rate %.1f%%, %d lookups)\n"+
			"  cache off: %10.0f tps\n"+
			"  speedup  : %.2fx\n",
		r.OnTps, r.HitRate*100, r.Lookups, r.OffTps, r.Speedup)
}
