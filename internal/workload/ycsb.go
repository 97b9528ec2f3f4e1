// Package workload implements the benchmark workloads of the paper's
// evaluation (§VIII-A): a YCSB generator (configurable read ratio,
// operations per transaction, value size, uniform or zipfian key
// popularity), a TPC-C implementation (full schema as key-value records,
// NURand, the standard five-transaction mix, remote-warehouse touches
// that force distributed transactions), and the bank-transfer workload
// the chaos soaks audit.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// YCSBConfig parameterizes the YCSB generator. The paper's defaults:
// 10 ops/txn, 1000 B values, uniform distribution over 10 k keys.
type YCSBConfig struct {
	// ReadRatio is the fraction of read operations in [0,1].
	ReadRatio float64
	// OpsPerTxn is the number of operations per transaction (default 10).
	OpsPerTxn int
	// ValueSize is the value payload size in bytes (default 1000).
	ValueSize int
	// Keys is the key-space size (default 10_000).
	Keys int
	// Zipfian selects a skewed popularity distribution (default
	// uniform).
	Zipfian bool
	// ZipfTheta is the zipfian skew (default 0.99, the YCSB standard).
	ZipfTheta float64
}

// withDefaults fills zero fields.
func (c YCSBConfig) withDefaults() YCSBConfig {
	if c.OpsPerTxn == 0 {
		c.OpsPerTxn = 10
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1000
	}
	if c.Keys == 0 {
		c.Keys = 10000
	}
	if c.ZipfTheta == 0 {
		c.ZipfTheta = 0.99
	}
	return c
}

// YCSBOp is one generated operation.
type YCSBOp struct {
	// Read selects read vs write.
	Read bool
	// Key is the target key.
	Key []byte
	// Value is the payload for writes (nil for reads).
	Value []byte
}

// YCSB generates transactions. Not safe for concurrent use; create one
// per client.
type YCSB struct {
	cfg  YCSBConfig
	rng  *rand.Rand
	zipf *zipfGen
	val  []byte
}

// NewYCSB creates a generator with the given seed.
func NewYCSB(cfg YCSBConfig, seed int64) *YCSB {
	cfg = cfg.withDefaults()
	y := &YCSB{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed)),
		val: make([]byte, cfg.ValueSize),
	}
	for i := range y.val {
		y.val[i] = byte('a' + i%26)
	}
	if cfg.Zipfian {
		y.zipf = newZipfGen(y.rng, uint64(cfg.Keys), cfg.ZipfTheta)
	}
	return y
}

// Key renders key i in YCSB's user-key format.
func (y *YCSB) Key(i int) []byte {
	return []byte(fmt.Sprintf("user%012d", i))
}

// nextKey draws a key index from the configured distribution.
func (y *YCSB) nextKey() int {
	if y.zipf != nil {
		return int(y.zipf.next())
	}
	return y.rng.Intn(y.cfg.Keys)
}

// NextTxn generates the operations of one transaction.
func (y *YCSB) NextTxn() []YCSBOp {
	ops := make([]YCSBOp, y.cfg.OpsPerTxn)
	for i := range ops {
		read := y.rng.Float64() < y.cfg.ReadRatio
		ops[i] = YCSBOp{Read: read, Key: y.Key(y.nextKey())}
		if !read {
			// Vary a prefix so values differ between writes.
			v := append([]byte(nil), y.val...)
			binary.LittleEndian.PutUint64(v, y.rng.Uint64())
			ops[i].Value = v
		}
	}
	return ops
}

// LoadKeys returns every key with an initial value, for preloading.
func (y *YCSB) LoadKeys() ([][]byte, []byte) {
	keys := make([][]byte, y.cfg.Keys)
	for i := range keys {
		keys[i] = y.Key(i)
	}
	return keys, y.val
}

// zipfGen is the standard YCSB zipfian generator (Gray et al.), drawing
// ranks in [0, n) with skew theta.
type zipfGen struct {
	rng             *rand.Rand
	n               uint64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
}

// newZipfGen precomputes the zipfian constants.
func newZipfGen(rng *rand.Rand, n uint64, theta float64) *zipfGen {
	z := &zipfGen{rng: rng, n: n, theta: theta}
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.zetan = zetaStatic(n, theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// zetaStatic computes the zeta constant.
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// next draws the next rank.
func (z *zipfGen) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
