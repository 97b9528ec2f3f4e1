package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"treaty/internal/counter"
	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/repl"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/twopc"
	"treaty/internal/txn"
	"treaty/internal/vfs"
)

// Layer probes time one public call (or call pair) of one layer, alone,
// on a single goroutine with a fixed operation count: the number a change
// to that layer should move first. Each reports the median over
// probeBatches batches and the heap allocations per operation
// (runtime.MemStats.Mallocs, so helper goroutines such as pollers count).
const probeBatches = 5

// probe is one layer probe. setup builds the layer and returns run, which
// performs n operations, and an optional cleanup.
type probe struct {
	name  string // metric name with its time unit suffix, e.g. probe.seal.msg_1k_us
	ops   int    // operations per batch
	setup func(dir string) (run func(n int) error, cleanup func(), err error)
}

var probeKB = make([]byte, 1024)

func probeKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

var probes = []probe{
	{name: "probe.seal.msg_1k_us", ops: 5000, setup: func(string) (func(int) error, func(), error) {
		mc, err := seal.NewMsgCodec(seal.Key{1})
		if err != nil {
			return nil, nil, err
		}
		wire := make([]byte, 0, seal.MsgWireLen(len(probeKB)))
		var md seal.MsgMetadata
		return func(n int) error {
			for i := 0; i < n; i++ {
				md.OpID++
				if _, _, err := mc.OpenMessage(mc.SealMessageInto(wire[:0], &md, probeKB)); err != nil {
					return err
				}
			}
			return nil
		}, nil, nil
	}},
	{name: "probe.seal.log_1k_us", ops: 5000, setup: func(string) (func(int) error, func(), error) {
		// Writer and reader advance the same hash chain in lockstep.
		w, err := seal.NewLogCodec(seal.LevelEncrypted, seal.Key{2}, "probe", 1)
		if err != nil {
			return nil, nil, err
		}
		r, err := seal.NewLogCodec(seal.LevelEncrypted, seal.Key{2}, "probe", 1)
		if err != nil {
			return nil, nil, err
		}
		var buf []byte
		return func(n int) error {
			for i := 0; i < n; i++ {
				buf, _ = w.AppendEntry(buf[:0], 1, probeKB)
				if _, _, err := r.DecodeEntry(buf); err != nil {
					return err
				}
			}
			return nil
		}, nil, nil
	}},
	{name: "probe.simnet.hop_us", ops: 5000, setup: func(string) (func(int) error, func(), error) {
		net := simnet.New(hostLink, 1)
		a, err := net.Listen("a")
		if err != nil {
			return nil, nil, err
		}
		b, err := net.Listen("b")
		if err != nil {
			return nil, nil, err
		}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := a.Send("b", probeKB); err != nil {
					return err
				}
				pkt, err := b.Recv()
				if err != nil {
					return err
				}
				pkt.Release()
			}
			return nil
		}, net.Close, nil
	}},
	{name: "probe.erpc.call_plain_us", ops: 3000, setup: func(string) (func(int) error, func(), error) { return erpcEchoProbe(false) }},
	{name: "probe.erpc.call_sealed_us", ops: 3000, setup: func(string) (func(int) error, func(), error) { return erpcEchoProbe(true) }},
	{name: "probe.fibers.yield_us", ops: 5000, setup: func(string) (func(int) error, func(), error) {
		sched := fibers.New(1, nil)
		return func(n int) error {
			f, err := sched.Go(func(f *fibers.Fiber) {
				for i := 0; i < n; i++ {
					f.Yield()
				}
			})
			if err != nil {
				return err
			}
			sched.Join(f)
			return nil
		}, sched.Stop, nil
	}},
	{name: "probe.txn.lock_us", ops: 20000, setup: func(string) (func(int) error, func(), error) {
		lt := txn.NewLockTable(0, hostLockTimeout)
		keys := []string{string(probeKey(1))}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := lt.Acquire(1, keys[0], txn.LockExclusive, nil); err != nil {
					return err
				}
				lt.ReleaseAll(1, keys)
			}
			return nil
		}, nil, nil
	}},
	{name: "probe.lsm.apply_1k_us", ops: 2000, setup: func(string) (func(int) error, func(), error) {
		db, err := openProbeDB(0)
		if err != nil {
			return nil, nil, err
		}
		b := lsm.NewBatch()
		next := 0
		return func(n int) error {
			for i := 0; i < n; i++ {
				b.Reset()
				b.Put(probeKey(next%probeDBKeys), probeKB)
				next++
				if _, _, err := db.Apply(b); err != nil {
					return err
				}
			}
			return nil
		}, func() { _ = db.Close() }, nil
	}},
	{name: "probe.lsm.get_hit_us", ops: 5000, setup: func(string) (func(int) error, func(), error) { return lsmGetProbe(0) }},
	{name: "probe.lsm.get_miss_us", ops: 5000, setup: func(string) (func(int) error, func(), error) { return lsmGetProbe(-1) }},
	{name: "probe.twopc.clog_append_us", ops: 1000, setup: func(string) (func(int) error, func(), error) {
		fs := vfs.NewMemFS()
		if err := fs.MkdirAll("/probe/counters", 0o755); err != nil {
			return nil, nil, err
		}
		ctr, err := lsm.NewFileCounter(fs, "/probe/counters/CLOG-000001")
		if err != nil {
			return nil, nil, err
		}
		clog, _, err := twopc.OpenClog(fs, "/probe", seal.LevelEncrypted, seal.Key{3}, nil, ctr, -1)
		if err != nil {
			return nil, nil, err
		}
		parts := []string{"node-0", "node-1"}
		var id lsm.TxID
		return func(n int) error {
			for i := 0; i < n; i++ {
				id[0], id[1], id[2] = byte(i), byte(i>>8), byte(i>>16)
				tok, err := clog.Append(twopc.ClogKindDecision, id, true, parts)
				if err != nil {
					return err
				}
				if err := tok.Wait(); err != nil {
					return err
				}
			}
			return nil
		}, func() { _ = clog.Close() }, nil
	}},
	{name: "probe.counter.round_us", ops: 500, setup: counterRoundProbe},
	{name: "probe.repl.ship_us", ops: 200, setup: replShipProbe},
	{name: "probe.shardmap.owner_ns", ops: 200000, setup: func(string) (func(int) error, func(), error) {
		m := shardmap.Uniform([]shardmap.Member{{ID: 0, Addr: "node-0"}, {ID: 1, Addr: "node-1"}, {ID: 2, Addr: "node-2"}})
		keys := make([][]byte, 1024)
		for i := range keys {
			keys[i] = probeKey(i)
		}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if m.Owner(keys[i%len(keys)]) == "" {
					return errors.New("shardmap: key has no owner")
				}
			}
			return nil
		}, nil, nil
	}},
}

// probeNet is two erpc endpoints with pollers on one simulated network.
type probeNet struct {
	net     *simnet.Network
	eps     []*erpc.Endpoint
	pollers []*erpc.Poller
}

func newProbeNet(secure bool, addrs ...string) (*probeNet, error) {
	p := &probeNet{net: simnet.New(hostLink, 1)}
	for i, addr := range addrs {
		nep, err := p.net.Listen(addr)
		if err != nil {
			p.close()
			return nil, err
		}
		ep, err := erpc.NewEndpoint(erpc.Config{
			NodeID:     uint64(i + 1),
			Transport:  erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
			NetworkKey: seal.Key{4},
			Secure:     secure,
		})
		if err != nil {
			p.close()
			return nil, err
		}
		p.eps = append(p.eps, ep)
		p.pollers = append(p.pollers, erpc.StartPoller(ep))
	}
	return p, nil
}

func (p *probeNet) close() {
	for _, po := range p.pollers {
		po.Stop()
	}
	for _, ep := range p.eps {
		_ = ep.Close()
	}
	p.net.Close()
}

const reqProbeEcho = 0x70

func erpcEchoProbe(secure bool) (func(int) error, func(), error) {
	p, err := newProbeNet(secure, "caller", "echo")
	if err != nil {
		return nil, nil, err
	}
	p.eps[1].Register(reqProbeEcho, func(req *erpc.Request) { req.Reply(req.Payload) })
	md := seal.MsgMetadata{TxID: 1}
	return func(n int) error {
		for i := 0; i < n; i++ {
			md.OpID++
			if _, err := erpc.Call(p.eps[0], "echo", reqProbeEcho, md, probeKB, hostTxnTimeout, nil); err != nil {
				return err
			}
		}
		return nil
	}, p.close, nil
}

const probeDBKeys = 10_000

func openProbeDB(blockCacheBytes int64) (*lsm.DB, error) {
	return lsm.Open(lsm.Options{
		Dir: "/probe", FS: vfs.NewMemFS(), Level: seal.LevelEncrypted, Key: seal.Key{5},
		BlockCacheBytes: blockCacheBytes,
	})
}

// lsmGetProbe reads keys that live in SSTables: with the default cache
// every block is resident after one pass (hit), with the cache disabled
// every read verifies and decrypts its block (miss).
func lsmGetProbe(blockCacheBytes int64) (func(int) error, func(), error) {
	db, err := openProbeDB(blockCacheBytes)
	if err != nil {
		return nil, nil, err
	}
	next := 0
	run := func(n int) error {
		for i := 0; i < n; i++ {
			// A stride coprime to the key count visits every block.
			next = (next + 7919) % probeDBKeys
			if _, _, found, err := db.Get(probeKey(next), db.LatestSeq()); err != nil || !found {
				return fmt.Errorf("lsm get: found=%v err=%v", found, err)
			}
		}
		return nil
	}
	load := func() error {
		b := lsm.NewBatch()
		for i := 0; i < probeDBKeys; i++ {
			b.Put(probeKey(i), probeKB)
			if b.Count() == 1000 || i == probeDBKeys-1 {
				if _, _, err := db.Apply(b); err != nil {
					return err
				}
				b.Reset()
			}
		}
		if err := db.Flush(); err != nil {
			return err
		}
		return run(probeDBKeys) // fill the cache, if there is one
	}
	if err := load(); err != nil {
		_ = db.Close()
		return nil, nil, err
	}
	return run, func() { _ = db.Close() }, nil
}

func counterRoundProbe(dir string) (func(int) error, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	addrs := []string{"client", "ctr-0", "ctr-1", "ctr-2"}
	p, err := newProbeNet(true, addrs...)
	if err != nil {
		return nil, nil, err
	}
	newClient := func() (*counter.Client, error) {
		for i, addr := range addrs[1:] {
			platform, err := enclave.NewPlatform(addr)
			if err != nil {
				return nil, err
			}
			encl, err := platform.Launch("treaty-counter", enclave.RuntimeConfig{Mode: enclave.ModeNative})
			if err != nil {
				return nil, err
			}
			if _, err := counter.NewReplica(p.eps[i+1], encl, dir); err != nil {
				return nil, err
			}
		}
		return counter.NewClient(counter.ClientConfig{Endpoint: p.eps[0], Replicas: addrs[1:]})
	}
	cli, err := newClient()
	if err != nil {
		p.close()
		return nil, nil, err
	}
	h := cli.Counter("probe")
	var v uint64
	return func(n int) error {
			for i := 0; i < n; i++ {
				v++
				h.Stabilize(v)
				if err := h.WaitStable(v); err != nil {
					return err
				}
			}
			return nil
		}, func() {
			cli.Close()
			p.close()
		}, nil
}

// nopWitness stands in for the CAS anchor the shipper reports to.
type nopWitness struct{}

func (nopWitness) ReplWitness(uint64, uint8, uint64, [seal.HashSize]byte) {}
func (nopWitness) ReplDegrade(uint64, uint8)                              {}

func replShipProbe(string) (func(int) error, func(), error) {
	p, err := newProbeNet(true, "primary", "backup")
	if err != nil {
		return nil, nil, err
	}
	key := seal.Key{4}
	backup, err := repl.NewBackup(repl.BackupConfig{Dir: "/bak", FS: vfs.NewMemFS(), Key: key})
	if err != nil {
		p.close()
		return nil, nil, err
	}
	p.eps[1].Register(twopc.ReqReplShip, backup.Handler())
	shipper := repl.NewShipper(repl.ShipperConfig{
		Stream:   repl.StreamWAL,
		Primary:  1,
		Endpoint: p.eps[0],
		BackupOf: func() (uint64, bool) { return 2, true },
		AddrOf:   func(id uint64) (string, bool) { return "backup", id == 2 },
		Witness:  nopWitness{},
		Key:      key,
	})
	var ctr uint64
	return func(n int) error {
			want := shipper.Seq() + uint64(n)
			for i := 0; i < n; i++ {
				ctr++
				shipper.Ship([]lsm.ReplEntry{{Kind: 1, Counter: ctr, Payload: probeKB}})
			}
			if got := shipper.Seq(); got != want {
				return fmt.Errorf("repl: backup acked %d groups, want %d", got, want)
			}
			return nil
		}, func() {
			shipper.Stop()
			_ = backup.Close()
			p.close()
		}, nil
}

// runProbes runs every probe once and returns its time and allocation
// metrics. dir is a scratch directory for the counter replicas' files;
// opsDiv divides the fixed operation counts (smoke test only).
func runProbes(dir string, opsDiv int) ([]metric, error) {
	var out []metric
	for _, p := range probes {
		p.ops /= opsDiv
		run, cleanup, err := p.setup(filepath.Join(dir, "probe"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if cleanup == nil {
			cleanup = func() {}
		}
		if err := run(p.ops / 5); err != nil { // warm caches, pools and pollers
			cleanup()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perOp := make([]float64, probeBatches)
		for b := range perOp {
			start := time.Now()
			if err := run(p.ops); err != nil {
				cleanup()
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			perOp[b] = float64(time.Since(start).Nanoseconds()) / float64(p.ops)
		}
		runtime.ReadMemStats(&after)
		cleanup()

		unit := p.name[strings.LastIndexByte(p.name, '_')+1:]
		_, v, _ := quartiles(perOp)
		if unit == "us" {
			v /= 1e3
		}
		out = append(out,
			metric{name: p.name, unit: unit, value: v, n: probeBatches},
			metric{name: strings.TrimSuffix(p.name, unit) + "allocs", unit: "1/op",
				value: float64(after.Mallocs-before.Mallocs) / float64(probeBatches*p.ops)})
	}
	return out, nil
}
