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

// BlockCacheConfig tunes the ablation.
type BlockCacheConfig struct {
	// Keys is the preloaded key-space size (default 20000).
	Keys int
	// ValueSize is the stored value size (default 256).
	ValueSize int
	// Ops is the measured operation count per arm (default 30000).
	Ops int
	// ReadRatio is the fraction of Gets (default 0.8, the paper's
	// read-heavy YCSB point).
	ReadRatio float64
	// CacheBytes sizes the cache-on arm (0 = engine default).
	CacheBytes int64
}

// withDefaults fills zero fields.
func (c BlockCacheConfig) withDefaults() BlockCacheConfig {
	if c.Keys == 0 {
		c.Keys = 20000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 256
	}
	if c.Ops == 0 {
		c.Ops = 30000
	}
	if c.ReadRatio == 0 {
		c.ReadRatio = 0.8
	}
	return c
}

// BlockCacheResult reports both arms of the ablation.
type BlockCacheResult struct {
	OnTps   float64 `json:"on_tps"`
	OffTps  float64 `json:"off_tps"`
	Speedup float64 `json:"speedup"`
	// HitRate and Lookups come from the cache-on arm; Lookups > 0 is the
	// non-vacuity check (a zero-lookup run measured nothing).
	HitRate float64 `json:"hit_rate"`
	Lookups uint64  `json:"lookups"`
	Hits    uint64  `json:"hits"`
}

// RunBlockCacheAblation measures the read path with the cache enabled
// and disabled and returns both throughputs.
func RunBlockCacheAblation(cfg BlockCacheConfig) (BlockCacheResult, error) {
	cfg = cfg.withDefaults()
	var res BlockCacheResult
	for _, on := range []bool{true, false} {
		tps, reg, err := runBlockCacheArm(cfg, on)
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
func runBlockCacheArm(cfg BlockCacheConfig, cacheOn bool) (tps float64, reg *obs.Registry, err error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return 0, nil, err
	}
	reg = obs.NewRegistry()
	cacheBytes := cfg.CacheBytes
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

	gen := workload.NewYCSB(workload.YCSBConfig{ReadRatio: cfg.ReadRatio, ValueSize: cfg.ValueSize, Keys: cfg.Keys}, 1)
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
	for op := 0; op < cfg.Ops; op++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < cfg.ReadRatio {
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
	return float64(cfg.Ops) / elapsed.Seconds(), reg, nil
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
