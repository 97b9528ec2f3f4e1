package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/core"
	"treaty/internal/lsm"
	"treaty/internal/simnet"
	"treaty/internal/vfs"
	"treaty/internal/workload"
)

// Fixed transaction shape of every workload (the paper's YCSB defaults).
const (
	opsPerTxn = 10
	valueSize = 1000
)

// workloadSpec is one benchmark workload. Host sizing is fixed here, not
// in flags; README.md records the measurements behind each number.
type workloadSpec struct {
	name      string
	why       string
	nodes     int
	mode      core.SecurityMode
	readRatio float64
	keys      int
	clients   int
	// warmup is the fixed number of transactions run before the first
	// measured one, so set-up time is work that repeats.
	warmup int
	// direct drives Node.Manager() on the one node, bypassing twopc,
	// shardmap and the op-path erpc.
	direct bool
}

var workloads = []workloadSpec{
	{
		name: "dist-write", nodes: 3, mode: core.ModeSconeEncStab,
		readRatio: 0.20, keys: 10_000, clients: 2, warmup: 500,
		why: "full security, 20% reads over 3 nodes: 2PC, WAL and Clog force, counter rounds and sealed erpc all on the path",
	},
	{
		name: "dist-read", nodes: 3, mode: core.ModeSconeEncStab,
		readRatio: 0.98, keys: 10_000, clients: 1, warmup: 1500,
		why: "full security, 98% reads that fit the block caches: ten op RPCs dominate and commit is cheap",
	},
	{
		name: "dist-native", nodes: 3, mode: core.ModeRocksDB,
		readRatio: 0.20, keys: 10_000, clients: 1, warmup: 2000,
		why: "native floor with the dist-write shape: seal, enclave model and counters do nothing, hops remain",
	},
	{
		name: "node-mixed", nodes: 1, mode: core.ModeSconeEncStab,
		readRatio: 0.50, keys: 100_000, clients: 1, warmup: 1500, direct: true,
		why: "one node through Node.Manager(), 100 MB over a 32 MiB cache: flushes, compaction and cache misses",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Every value the benchmark writes starts with a tag: magic, writer and
// the writer's transaction sequence. The rest is the generator's filler.
const (
	tagMagic      = 0x54525459 // "TRTY"
	preloadWriter = 0xFFFFFFFF
)

type tag struct {
	writer uint32
	seq    uint64
}

func stampTag(v []byte, t tag) {
	binary.LittleEndian.PutUint32(v[0:], tagMagic)
	binary.LittleEndian.PutUint32(v[4:], t.writer)
	binary.LittleEndian.PutUint64(v[8:], t.seq)
}

func readTag(v []byte) (tag, error) {
	if len(v) != valueSize {
		return tag{}, fmt.Errorf("value has %d bytes, want %d", len(v), valueSize)
	}
	if binary.LittleEndian.Uint32(v) != tagMagic {
		return tag{}, errors.New("value carries no benchmark tag")
	}
	return tag{binary.LittleEndian.Uint32(v[4:]), binary.LittleEndian.Uint64(v[8:])}, nil
}

// client is one closed-loop driver goroutine's state.
type client struct {
	id    int
	gen   *workload.YCSB
	begin workload.Begin
	node  *core.Node
	peers []*client

	// issued is the sequence of the last transaction begun; peers read it
	// to bound the tags they may observe.
	issued atomic.Uint64
	// lastWrite maps a key to the sequence of this client's last
	// committed transaction that wrote it; failedSeqs holds sequences
	// whose transaction did not commit. Read only after the clients stop.
	lastWrite  map[string]uint64
	failedSeqs map[uint64]bool

	ops []workload.YCSBOp // scratch for nextOps
}

// nextOps draws one transaction from the generator and makes it
// deadlock-free: distinct keys (no shared-to-exclusive upgrade races) in
// ascending order (no lock cycles). Lock waits remain; they end when the
// holder commits, never through the lock timeout (see hostLockTimeout).
func (cl *client) nextOps() []workload.YCSBOp {
	ops := cl.ops[:0]
	for len(ops) < opsPerTxn {
		for _, op := range cl.gen.NextTxn() {
			dup := false
			for i := range ops {
				if bytes.Equal(ops[i].Key, op.Key) {
					dup = true
					break
				}
			}
			if !dup && len(ops) < opsPerTxn {
				ops = append(ops, op)
			}
		}
	}
	slices.SortFunc(ops, func(a, b workload.YCSBOp) int { return bytes.Compare(a.Key, b.Key) })
	cl.ops = ops
	return ops
}

// checkRead validates a value observed inside a transaction.
func (cl *client) checkRead(key, v []byte, found bool) error {
	if !found {
		return fmt.Errorf("key %q: preloaded key not found", key)
	}
	t, err := readTag(v)
	if err != nil {
		return fmt.Errorf("key %q: %w", key, err)
	}
	if t.writer == preloadWriter {
		return nil
	}
	if int(t.writer) >= len(cl.peers) {
		return fmt.Errorf("key %q: tag names writer %d of %d", key, t.writer, len(cl.peers))
	}
	if issued := cl.peers[t.writer].issued.Load(); t.seq == 0 || t.seq > issued {
		return fmt.Errorf("key %q: tag sequence %d, writer %d has issued %d", key, t.seq, t.writer, issued)
	}
	return nil
}

// txnTimes is what one attempt reports to its window.
type txnTimes struct {
	total, commit int64 // ns
	putBytes      int64 // key and value bytes this transaction put
	err           error // nil: committed
	violation     error // a read returned an ill-formed value
}

// runTxn executes one transaction. Span recording (rec != nil) is the only
// thing a traced window adds to this path.
func (cl *client) runTxn(rec *spanLog) txnTimes {
	ops := cl.nextOps()
	seq := cl.issued.Add(1)
	var out txnTimes

	root := rec.open(cl.id, seq)
	start := time.Now()
	tx := cl.begin()
	for _, op := range ops {
		opStart := rec.now()
		var err error
		if op.Read {
			var v []byte
			var found bool
			if v, found, err = tx.Get(op.Key); err == nil {
				out.violation = errors.Join(out.violation, cl.checkRead(op.Key, v, found))
			}
			rec.child(root, spanGet, opStart)
		} else {
			stampTag(op.Value, tag{uint32(cl.id), seq})
			err = tx.Put(op.Key, op.Value)
			out.putBytes += int64(len(op.Key) + len(op.Value))
			rec.child(root, spanPut, opStart)
		}
		if err != nil {
			_ = tx.Rollback() // the operation's error is what is reported
			out.err = err
			break
		}
	}
	if out.err == nil {
		commitStart := time.Now()
		out.err = tx.Commit()
		end := time.Now()
		out.commit = end.Sub(commitStart).Nanoseconds()
		out.total = end.Sub(start).Nanoseconds()
		rec.childAt(root, spanCommit, commitStart, end)
		rec.close(root, start, end, out.err == nil)
	} else {
		rec.close(root, start, time.Now(), false)
	}

	if out.err != nil {
		cl.failedSeqs[seq] = true
		return out
	}
	for _, op := range ops {
		if !op.Read {
			cl.lastWrite[string(op.Key)] = seq
		}
	}
	return out
}

// rig is one booted, loaded and warmed-up cluster with its clients.
type rig struct {
	spec    workloadSpec
	cluster *core.Cluster
	io      *[numClasses]ioCounts
	clients []*client
	setupS  float64
}

// hostLink is the fabric every workload uses: 5 GB/s, zero injected
// latency (goroutine hand-offs already exceed a 40 GbE switch).
var hostLink = simnet.LinkConfig{BandwidthBps: 5 << 30}

// The cluster's timeouts are wall-clock deadlines, and the shared host
// freezes the whole process for hundreds of milliseconds now and then. A
// freeze that outlasts a deadline while a client waits for its peer's lock
// fails that transaction although nothing is wrong (measured: 1 failure in
// 55 pauses of 300 ms at the 250 ms lock timeout the issue names, none at
// these). No workload can deadlock and nothing is lost on the link, so no
// operation ever needs a timeout to end; both sit far beyond any freeze and
// below the driver's 180 s limit for a run.
const (
	hostLockTimeout = 20 * time.Second
	hostTxnTimeout  = 30 * time.Second
)

// setUp does everything that precedes the first measured transaction:
// boot (attestation, key provisioning, shard map), preload routed by the
// shard map, flush, wait for compaction to settle, fixed-count warm-up.
// warmDiv shrinks the warm-up for the smoke test.
func setUp(spec workloadSpec, seed int64, baseDir string, warmDiv int) (*rig, error) {
	start := time.Now()
	r := &rig{spec: spec, io: new([numClasses]ioCounts)}
	c, err := core.NewCluster(core.ClusterOptions{
		Nodes:       spec.nodes,
		Mode:        spec.mode,
		BaseDir:     baseDir,
		Link:        hostLink,
		Workers:     1,
		LockTimeout: hostLockTimeout,
		TxnTimeout:  hostTxnTimeout,
		Seed:        21,
		NodeFS:      func(int) vfs.FS { return newCountFS(vfs.NewMemFS(), r.io) },
	})
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", spec.name, err)
	}
	r.cluster = c

	ycsb := workload.YCSBConfig{ReadRatio: spec.readRatio, OpsPerTxn: opsPerTxn, ValueSize: valueSize, Keys: spec.keys}
	if err := r.preload(workload.NewYCSB(ycsb, seed)); err != nil {
		_ = c.Stop()
		return nil, err
	}

	r.clients = make([]*client, spec.clients)
	for i := range r.clients {
		node := c.Node(i % c.Nodes())
		cl := &client{
			id:         i,
			gen:        workload.NewYCSB(ycsb, seed*1000+int64(i)+1),
			node:       node,
			lastWrite:  make(map[string]uint64),
			failedSeqs: make(map[uint64]bool),
		}
		if spec.direct {
			cl.begin = func() workload.Txn { return node.Manager().BeginPessimistic(nil) }
		} else {
			cl.begin = func() workload.Txn { return node.Begin(nil) }
		}
		r.clients[i] = cl
	}
	for _, cl := range r.clients {
		cl.peers = r.clients
	}

	warm := r.drive(0, max(spec.warmup/warmDiv/spec.clients, 1), false)
	if err := warm.firstProblem(); err != nil {
		_ = c.Stop()
		return nil, fmt.Errorf("%s warm-up: %w", spec.name, err)
	}
	r.setupS = time.Since(start).Seconds()
	return r, nil
}

// preload writes every key once, through each owner's engine, then pushes
// the data into SSTables so measured reads take the block path.
func (r *rig) preload(gen *workload.YCSB) error {
	c := r.cluster
	keys, filler := gen.LoadKeys()
	value := append([]byte(nil), filler...)
	stampTag(value, tag{writer: preloadWriter})

	view := c.Node(0).Shard().View()
	byAddr := make(map[string]*core.Node, c.Nodes())
	batches := make(map[string]*lsm.Batch, c.Nodes())
	for i := 0; i < c.Nodes(); i++ {
		byAddr[c.Node(i).Addr()] = c.Node(i)
		batches[c.Node(i).Addr()] = lsm.NewBatch()
	}
	apply := func(addr string) error {
		b := batches[addr]
		if b.Count() == 0 {
			return nil
		}
		_, _, err := byAddr[addr].DB().Apply(b)
		b.Reset()
		return err
	}
	for _, k := range keys {
		addr := view.Owner(k)
		b, ok := batches[addr]
		if !ok {
			return fmt.Errorf("preload: key %q routed to unknown node %q", k, addr)
		}
		b.Put(k, value)
		if b.Count() == 2000 {
			if err := apply(addr); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	for addr := range batches {
		if err := apply(addr); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for i := 0; i < c.Nodes(); i++ {
		if err := c.Node(i).DB().Flush(); err != nil {
			return fmt.Errorf("preload flush: %w", err)
		}
	}
	r.settleCompaction()
	return nil
}

// settleCompaction waits until no node has finished a compaction for
// 200 ms, so the preload's background work does not leak into a window.
func (r *rig) settleCompaction() {
	count := func() (n uint64) {
		for i := 0; i < r.cluster.Nodes(); i++ {
			n += r.cluster.Node(i).DB().Stats().Compactions
		}
		return n
	}
	last, quiet := count(), 0
	for deadline := time.Now().Add(10 * time.Second); quiet < 4 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		if n := count(); n != last {
			last, quiet = n, 0
		} else {
			quiet++
		}
	}
}

// window is what the clients did between two instants.
type window struct {
	seconds    float64
	attempted  int
	putBytes   int64   // key and value bytes put by committed transactions
	txnNs      []int64 // committed transactions, sorted
	commitNs   []int64 // same transactions, sorted
	failures   []error
	violations []error
	spans      *spanLog   // traced windows only
	stages     *stageLog  // traced windows over 2PC only
	before     *layerSnap // counters at the window's edges (traced only)
	after      *layerSnap
}

func (w *window) committed() int { return len(w.txnNs) }

func (w *window) firstProblem() error {
	if len(w.violations) > 0 {
		return w.violations[0]
	}
	if len(w.failures) > 0 {
		return w.failures[0]
	}
	return nil
}

// drive runs every client closed-loop, either for a duration or, when
// count > 0, for exactly count transactions each. One attempt is one
// transaction; nothing is retried. trace selects span recording.
func (r *rig) drive(d time.Duration, count int, traced bool) *window {
	w := &window{}
	var recs []*spanLog
	if traced {
		w.stages = newStageLog(r)
		w.before = r.snapLayers()
	}
	perClient := make([]window, len(r.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		var rec *spanLog
		if traced {
			rec = newSpanLog(start)
			recs = append(recs, rec)
		}
		wg.Add(1)
		go func(cl *client, rec *spanLog, res *window) {
			defer wg.Done()
			for count > 0 && res.attempted < count || count == 0 && time.Now().Before(deadline) {
				t := cl.runTxn(rec)
				res.attempted++
				if t.violation != nil {
					res.violations = append(res.violations, t.violation)
				}
				if t.err != nil {
					res.failures = append(res.failures, t.err)
					continue
				}
				res.txnNs = append(res.txnNs, t.total)
				res.commitNs = append(res.commitNs, t.commit)
				res.putBytes += t.putBytes
				if len(res.txnNs)%stageHarvestEvery == 0 {
					w.stages.harvest(cl.node)
				}
			}
		}(cl, rec, &perClient[i])
	}
	wg.Wait()
	w.seconds = time.Since(start).Seconds()
	if traced {
		for _, cl := range r.clients {
			w.stages.harvest(cl.node)
		}
		w.after = r.snapLayers()
		w.spans = mergeSpanLogs(recs)
	}
	for _, res := range perClient {
		w.attempted += res.attempted
		w.putBytes += res.putBytes
		w.txnNs = append(w.txnNs, res.txnNs...)
		w.commitNs = append(w.commitNs, res.commitNs...)
		w.failures = append(w.failures, res.failures...)
		w.violations = append(w.violations, res.violations...)
	}
	slices.Sort(w.txnNs)
	slices.Sort(w.commitNs)
	return w
}

// verify reads every key some committed transaction wrote back through
// fresh transactions. A key written by one client must hold exactly that
// client's last committed tag; a key several clients wrote must hold the
// last committed tag of one of them; no key may hold a failed
// transaction's tag or a torn value. It returns the number of keys read.
func (r *rig) verify() (int, error) {
	writers := make(map[string][]tag)
	for _, cl := range r.clients {
		for k, seq := range cl.lastWrite {
			writers[k] = append(writers[k], tag{uint32(cl.id), seq})
		}
	}
	keys := make([]string, 0, len(writers))
	for k := range writers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	checked := len(keys)

	begin := r.clients[0].begin
	for len(keys) > 0 {
		n := min(opsPerTxn, len(keys))
		tx := begin()
		for _, k := range keys[:n] {
			if err := r.checkKey(tx, k, writers[k]); err != nil {
				_ = tx.Rollback() // the violation is what is reported
				return 0, err
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, fmt.Errorf("read-back commit: %w", err)
		}
		keys = keys[n:]
	}
	return checked, nil
}

// checkKey reads one key back and compares its tag with the last
// committed tag of each client that wrote it.
func (r *rig) checkKey(tx workload.Txn, k string, writers []tag) error {
	v, found, err := tx.Get([]byte(k))
	if err != nil {
		return fmt.Errorf("read-back of %q: %w", k, err)
	}
	if !found {
		return fmt.Errorf("read-back: key %q is gone", k)
	}
	got, err := readTag(v)
	if err != nil {
		return fmt.Errorf("read-back of %q: %w", k, err)
	}
	for _, want := range writers {
		if got == want {
			return nil
		}
	}
	failed := int(got.writer) < len(r.clients) && r.clients[got.writer].failedSeqs[got.seq]
	return fmt.Errorf("read-back: key %q holds tag (writer %d, seq %d), committed writers are %v (tag of a failed transaction: %v)",
		k, got.writer, got.seq, writers, failed)
}

func (r *rig) stop() error {
	err := r.cluster.Stop()
	runtime.GC()
	return err
}

// percentile returns the q-quantile of a sorted slice (nearest rank).
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}
