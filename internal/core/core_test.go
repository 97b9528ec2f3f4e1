package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/lsm"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/txn"
	"treaty/internal/vfs"
)

func newCluster(t *testing.T, mode SecurityMode) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		Nodes:       3,
		Mode:        mode,
		BaseDir:     t.TempDir(),
		LockTimeout: 500 * time.Millisecond,
		Workers:     4,
		Seed:        5,
		Link:        simnet.LinkConfig{Latency: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatalf("NewCluster(%v): %v", mode, err)
	}
	stopAtCleanup(t, c)
	return c
}

// stopAtCleanup stops c when the test ends: a conservation law that does
// not hold on the quiet cluster, or a shutdown error, fails the test.
func stopAtCleanup(t *testing.T, c *Cluster) {
	t.Cleanup(func() {
		if err := c.Stop(); err != nil {
			t.Errorf("cluster stop: %v", err)
		}
	})
}

func TestClusterAllModesBasicTxn(t *testing.T) {
	for _, mode := range AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, mode)
			tx := c.Node(0).Begin(nil)
			for i := 0; i < 9; i++ {
				if err := tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx2 := c.Node(1).Begin(nil)
			for i := 0; i < 9; i++ {
				v, ok, err := tx2.Get([]byte(fmt.Sprintf("k%d", i)))
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("k%d = %q/%v/%v", i, v, ok, err)
				}
			}
			tx2.Rollback()
		})
	}
}

func TestClientProtocolEndToEnd(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx, err := cl.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.TxnPut([]byte("user:1"), []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := tx.TxnPut([]byte("user:2"), []byte("bob")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tx.TxnGet([]byte("user:1"))
	if err != nil || !found || string(v) != "alice" {
		t.Fatalf("RYOW via client: %q/%v/%v", v, found, err)
	}
	if err := tx.TxnCommit(); err != nil {
		t.Fatal(err)
	}

	// A second client (different coordinator) reads the data.
	cl2, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	tx2, err := cl2.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	v, found, err = tx2.TxnGet([]byte("user:2"))
	if err != nil || !found || string(v) != "bob" {
		t.Fatalf("cross-client read: %q/%v/%v", v, found, err)
	}
	if err := tx2.TxnRollback(); err != nil {
		t.Fatal(err)
	}
}

func TestClientRollbackDiscards(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.TxnPut([]byte("ghost"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.TxnRollback(); err != nil {
		t.Fatal(err)
	}
	tx2, err := cl.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tx2.TxnGet([]byte("ghost")); found {
		t.Error("rolled-back write visible")
	}
	tx2.TxnRollback()
}

// crashRestartKeepsAcked commits one distributed transaction coordinated by
// node 0, crash-restarts node victim and reads every key back through it,
// in every mode. A mode without the counter service recovers with no
// trusted value; replaying a secure log against a counter that restarted
// at zero instead would discard the acknowledged commits as an
// unstabilized tail. No mode keeps a counters/ directory beside its logs.
func crashRestartKeepsAcked(t *testing.T, victim int) {
	for _, mode := range AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, mode)
			keys := commitKeys(t, c, "durable", 1, 9)
			c.CrashNode(victim)
			if _, err := c.RestartNode(victim); err != nil {
				t.Fatalf("restart: %v", err)
			}
			wantKeys(t, c, victim, keys)
			for i := 0; i < c.Nodes(); i++ {
				if _, err := os.Stat(filepath.Join(c.baseDir, c.NodeAddr(i), "counters")); !os.IsNotExist(err) {
					t.Errorf("%s has a counters/ entry (stat err=%v)", c.NodeAddr(i), err)
				}
			}
		})
	}
}

// TestClusterCrashRestartDurability: a crashed participant restarts with
// the committed data and serves it.
func TestClusterCrashRestartDurability(t *testing.T) { crashRestartKeepsAcked(t, 1) }

// TestClusterCoordinatorCrashRecovery: a coordinator crashed right after
// commit recovers the decision from its Clog and keeps the data.
func TestClusterCoordinatorCrashRecovery(t *testing.T) { crashRestartKeepsAcked(t, 0) }

// TestCrashedNodeCommitsNothing: a client still holding a crashed node
// runs a transaction whose only writer is that node. Its one-phase commit
// would be a call that appends nothing to the Clog the crash abandoned,
// but a coordinator whose Clog fail-stopped commits nothing: the commit
// must fail without writing the WAL, so the restarted node never serves
// the write.
func TestCrashedNodeCommitsNothing(t *testing.T) {
	for _, mode := range AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, mode)
			key := []byte(keysOwnedBy(t, c, 1, 1)[0])
			crashed := c.Node(1)
			c.CrashNode(1)
			tx := crashed.Begin(nil)
			if err := tx.Put(key, []byte("ghost")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err == nil {
				t.Fatal("a crashed node committed a transaction")
			}
			if _, err := c.RestartNode(1); err != nil {
				t.Fatal(err)
			}
			check := c.Node(0).Begin(nil)
			if v, ok, err := check.Get(key); err != nil || ok {
				t.Errorf("%s = %q/%v/%v after restart: the crashed node's commit reached its WAL", key, v, ok, err)
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// memCluster is newCluster with every node storing to its own MemFS,
// which outlives the node and the cluster. It returns the options, so a
// cluster of the same shape can boot on the same storage.
func memCluster(t *testing.T, mode SecurityMode) (*Cluster, ClusterOptions) {
	t.Helper()
	fs := []*vfs.MemFS{vfs.NewMemFS(), vfs.NewMemFS(), vfs.NewMemFS()}
	opts := ClusterOptions{
		Nodes:       3,
		Mode:        mode,
		BaseDir:     t.TempDir(),
		LockTimeout: 500 * time.Millisecond,
		Workers:     4,
		Seed:        5,
		Link:        simnet.LinkConfig{Latency: 50 * time.Microsecond},
		NodeFS:      func(i int) vfs.FS { return fs[i] },
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster(%v): %v", mode, err)
	}
	stopAtCleanup(t, c)
	return c, opts
}

// TestStopChecksLaws: Cluster.Stop checks every live node's laws after
// its drain and names the node and the law that does not hold — here a
// transaction node-1's coordinator counted as begun and never resolved.
// The round law, core's own, trips on a counter round no group demanded.
func TestStopChecksLaws(t *testing.T) {
	c, err := NewCluster(ClusterOptions{Nodes: 3, Mode: ModeNativeTreatyEnc, BaseDir: t.TempDir(), Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	commitKeys(t, c, "laws", 2, 6)
	if err := c.CheckLaws(); err != nil {
		t.Fatalf("clean cluster: %v", err)
	}
	reg := c.Node(2).Metrics()
	reg.Counter("counter.rounds").Add(1000)
	if err := reg.CheckLaws(); err == nil || !strings.Contains(err.Error(), "core.round law violated") {
		t.Fatalf("an undemanded counter round: %v", err)
	}
	reg.Counter("counter.round.failures").Add(1000) // failed rounds demand nothing
	c.Node(1).Metrics().Counter("twopc.tx.begun").Inc()
	if err := c.Stop(); err == nil || !strings.Contains(err.Error(), "node-1: twopc.tx law violated") {
		t.Fatalf("Stop over an unresolved transaction: %v", err)
	}
}

// TestStopDrainsPushes: a clean stop ends every commit push, which runs
// after its client's answer, before any node stops. A push cut off by a
// stopped peer would leave that part prepared in its WAL, so a cluster
// booted on the same storage must find nothing in doubt, and the
// participants must have committed every writer leg before the stop.
func TestStopDrainsPushes(t *testing.T) {
	// Unsealed, so the second cluster's fresh keys read the first's files.
	c, opts := memCluster(t, ModeRocksDB)
	const txns = 12
	keys := make([][]string, c.Nodes())
	for i := range keys {
		keys[i] = keysOwnedBy(t, c, uint64(i), txns)
	}
	nodes := []*Node{c.Node(0), c.Node(1), c.Node(2)}
	for n := 0; n < txns; n++ {
		tx := nodes[n%len(nodes)].Begin(nil)
		for i := range nodes { // a writer on every node
			if err := tx.Put([]byte(keys[i][n]), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	var commits uint64
	for _, n := range nodes {
		commits += n.Snapshot().Counter("twopc.part.commits")
	}
	if want := uint64(txns * len(nodes)); commits != want {
		t.Errorf("participants committed %d writer legs before Stop returned, want %d", commits, want)
	}

	again, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("reboot on the same storage: %v", err)
	}
	stopAtCleanup(t, again)
	for i := 0; i < again.Nodes(); i++ {
		if p := again.Node(i).DB().RecoveredPrepared(); len(p) != 0 {
			t.Errorf("%s recovered %d transactions prepared: a push was cut off by Stop", again.NodeAddr(i), len(p))
		}
	}
}

// TestPushAfterCrashWritesNothing: a commit push runs after its client's
// answer, on a goroutine a crash cannot stop. Held across a crash and
// restart of its coordinator's node, then released, its local leg must
// fail without writing the WAL the restarted node replayed and owns, and
// the transaction reads back committed from recovery.
func TestPushAfterCrashWritesNothing(t *testing.T) {
	c, opts := memCluster(t, ModeSconeEnc)
	keys := [][]byte{[]byte(keysOwnedBy(t, c, 0, 1)[0]), []byte(keysOwnedBy(t, c, 1, 1)[0])}
	crashed := c.Node(0)
	release := crashed.Coordinator().HoldPushes()
	tx := crashed.Begin(nil)
	for _, key := range keys {
		if err := tx.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.CrashNode(0)
	if _, err := c.RestartNode(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	fs, dir := opts.NodeFS(0), filepath.Join(c.baseDir, c.NodeAddr(0))
	walBytes := func() int64 {
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "wal-") {
				info, err := fs.Stat(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				sum += info.Size()
			}
		}
		return sum
	}
	before := walBytes()
	release()
	crashed.Coordinator().Drain()
	if after := walBytes(); after != before {
		t.Errorf("WAL bytes on %s went %d → %d: the crashed node's push wrote the restarted node's log", c.NodeAddr(0), before, after)
	}
	wantKeys(t, c, 2, keys)
}

// TestServiceModeWithoutReplicasRefusesBoot: a node whose mode stabilizes
// on the counter service, provisioned a cluster config that lists no
// counter replicas, used to boot on local counter files and still report
// "Treaty w/ Enc w/ Stab". It must refuse, name the mode, touch no file
// and release its address.
func TestServiceModeWithoutReplicasRefusesBoot(t *testing.T) {
	c := newCluster(t, ModeSconeEnc) // same seal level, no protection group
	commitKeys(t, c, "downgrade", 1, 9)
	c.CrashNode(1)
	listing := func() string {
		entries, err := os.ReadDir(c.nodeCfg[1].Dir)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, e := range entries {
			info, _ := e.Info()
			out += fmt.Sprintf("%s:%d ", e.Name(), info.Size())
		}
		return out
	}
	before := listing()
	cfg := c.nodeCfg[1]
	cfg.Mode = ModeSconeEncStab
	n, err := StartNode(cfg)
	if err == nil {
		n.Stop()
		t.Fatalf("a %v node booted with no counter replicas provisioned", cfg.Mode)
	}
	if !strings.Contains(err.Error(), ModeSconeEncStab.String()) {
		t.Errorf("boot error does not name the mode: %v", err)
	}
	if after := listing(); after != before {
		t.Errorf("refused boot touched the node directory:\n before %s\n after  %s", before, after)
	}
	if _, err := c.RestartNode(1); err != nil {
		t.Fatalf("restart in the provisioned mode after the refused boot: %v", err)
	}
}

func TestRuntimeChargesInSconeModes(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)
	tx := c.Node(0).Begin(nil)
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	stats := c.Node(0).Runtime().Stats()
	if stats.AsyncSyscalls == 0 {
		t.Error("scone mode must charge async syscalls for I/O")
	}
}

func TestRouterCoversAllNodes(t *testing.T) {
	// Shard-map-driven assignment: the uniform boot map spreads keys
	// over every member, routes each key to exactly one owner, and an
	// epoch flip changes routing only for the migrated slots.
	members := []shardmap.Member{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}, {ID: 2, Addr: "c"}}
	m := shardmap.Uniform(members)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		owner := m.Owner(k)
		if owner == "" {
			t.Fatalf("key %s has no owner", k)
		}
		if m.Owner(k) != owner {
			t.Fatal("router must be deterministic")
		}
		seen[owner] = true
	}
	if len(seen) != 3 {
		t.Errorf("router used %d nodes, want 3", len(seen))
	}

	// Successor epoch: only keys in the migrated slot change owners.
	next := m.Clone()
	next.Epoch++
	const moved = 5
	next.Slots[moved] = (m.SlotOwner(moved) + 1) % 3
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("epoch-key-%d", i))
		before, after := m.Owner(k), next.Owner(k)
		if shardmap.SlotOf(k) == moved {
			if before == after {
				t.Fatalf("key %s in migrated slot kept owner %s", k, before)
			}
		} else if before != after {
			t.Fatalf("key %s outside migrated slot moved %s -> %s", k, before, after)
		}
	}
}

func TestSSTableTamperDetectedAtClusterLevel(t *testing.T) {
	base := t.TempDir()
	c, err := NewCluster(ClusterOptions{
		Nodes: 3, Mode: ModeSconeEncStab, BaseDir: base,
		MemTableSize: 16 << 10, // small: force flushes to SSTables
	})
	if err != nil {
		t.Fatal(err)
	}
	stopAtCleanup(t, c)

	// Write enough data to flush tables on node-0.
	for round := 0; round < 8; round++ {
		tx := c.Node(0).Begin(nil)
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("bulk-%d-%d", round, i)
			val := fmt.Sprintf("%0512d", i)
			if err := tx.Put([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Let every commit push end first: a prepare still waiting for its
	// outcome pins its WAL, which the restart then replays into a newer
	// table that shadows the tampered one's keys.
	for i := 0; i < 3; i++ {
		c.Node(i).Coordinator().Drain()
	}
	for i := 0; i < 3; i++ {
		if err := c.Node(i).DB().Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// The adversary flips a byte in every one of node-0's tables on disk:
	// a table that a compaction or an in-doubt prepare's replayed WAL has
	// made unread would leave the check vacuous.
	matches, err := filepath.Glob(filepath.Join(base, "node-0", "sst-*.sst"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sstables flushed: %v (%d)", err, len(matches))
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue // obsolete, deleted since the glob
		} else if err != nil {
			t.Fatal(err)
		}
		data[len(data)/3] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Evict cached readers by restarting the node; reads against the
	// tampered table must fail loudly, never return wrong data.
	c.CrashNode(0)
	_, rerr := c.RestartNode(0)
	if rerr != nil {
		return // recovery already refused the tampered table: detected
	}
	sawError := false
	for round := 0; round < 8 && !sawError; round++ {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("bulk-%d-%d", round, i)
			v, _, found, gerr := c.Node(0).DB().Get([]byte(key), c.Node(0).DB().LatestSeq())
			if gerr != nil {
				sawError = true
				break
			}
			if found && len(v) == 512 && string(v) != fmt.Sprintf("%0512d", i) {
				t.Fatalf("tampered data returned silently for %s", key)
			}
		}
	}
	if !sawError {
		t.Fatal("no integrity error surfaced for the tampered table")
	}
}

func TestConcurrentClientsManyTxns(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)
	const nClients = 6
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		go func(cl *Client, i int) {
			for j := 0; j < 5; j++ {
				tx, err := cl.BeginTxn()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.TxnPut([]byte(fmt.Sprintf("c%d-k%d", i, j)), []byte("v")); err != nil {
					tx.TxnRollback()
					errs <- err
					return
				}
				if err := tx.TxnCommit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(cl, i)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocalCommitOnCrashedNodeFails: every commit waits on its token, so
// a local commit in flight when its node crashes, in a mode without the
// counter service, reports the crash instead of an acknowledgement. Each
// commit fills the memtable, so the engine rotates to a new WAL after the
// commit's append and before its answer; the gate holds that rotation,
// under the engine's lock, until Crash has failed the node's counters.
// The append has succeeded by then (Crash abandons the WAL only once the
// engine is released), so only the token wait can report the crash.
func TestLocalCommitOnCrashedNodeFails(t *testing.T) {
	type localTxn interface {
		Put(key, value []byte) error
		Commit() error
	}
	begins := []struct {
		name  string
		begin func(m *txn.Manager) localTxn
	}{
		{"pessimistic", func(m *txn.Manager) localTxn { return m.BeginPessimistic(nil) }},
		{"optimistic", func(m *txn.Manager) localTxn { return m.BeginOptimistic(nil) }},
	}
	for _, mode := range []SecurityMode{ModeRocksDB, ModeSconeEnc} {
		for _, tc := range begins {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				gate := &walCreateGate{FS: vfs.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
				c, err := NewCluster(ClusterOptions{Nodes: 1, Mode: mode, BaseDir: t.TempDir(), Workers: 2, Seed: 5,
					MemTableSize: 1, NodeFS: func(int) vfs.FS { return gate }})
				if err != nil {
					t.Fatal(err)
				}
				stopAtCleanup(t, c)
				n := c.Node(0)
				b := lsm.NewBatch()
				b.Put([]byte("probe"), []byte("v"))
				probe, _, err := n.DB().Apply(b) // fails once Crash fails the counters
				if err != nil || probe.Wait() != nil {
					t.Fatalf("commit before crash: %v", err)
				}
				tx := tc.begin(n.Manager())
				if err := tx.Put([]byte("k"), []byte("v")); err != nil {
					t.Fatal(err)
				}
				gate.armed.Store(true)
				committed := make(chan error, 1)
				go func() { committed <- tx.Commit() }()
				<-gate.entered
				crashed := make(chan struct{})
				go func() { c.CrashNode(0); close(crashed) }()
				for deadline := time.Now().Add(5 * time.Second); probe.Wait() == nil; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("Crash did not fail the node's counters")
					}
				}
				close(gate.release)
				<-crashed
				if err := <-committed; err == nil {
					t.Fatal("a local commit on a crashed node was acknowledged")
				}
			})
		}
	}
}

// walCreateGate holds the first WAL creation after armed is set until
// release is closed, and announces it on entered.
type walCreateGate struct {
	vfs.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *walCreateGate) Create(name string) (vfs.File, error) {
	if strings.HasPrefix(filepath.Base(name), "wal-") && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.FS.Create(name)
}

// TestCrashPoisonsVolatileCounters: the immediate counters of a mode
// without the counter service stabilize instantly, so Crash has to poison
// them to cut the node's acknowledgement path: every stable-token wait
// after it fails, for tokens handed out before the crash and after, on
// the counter of a WAL rotated away before the crash as on the live one,
// at the plain level and at a secure one.
func TestCrashPoisonsVolatileCounters(t *testing.T) {
	for _, mode := range []SecurityMode{ModeRocksDB, ModeNativeTreatyEnc} {
		t.Run(mode.String(), func(t *testing.T) {
			c, err := NewCluster(ClusterOptions{Nodes: 1, Mode: mode, BaseDir: t.TempDir(), Workers: 2, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			stopAtCleanup(t, c)
			n := c.Node(0)
			apply := func() (durlog.StableToken, error) {
				b := lsm.NewBatch()
				b.Put([]byte("k"), []byte("v"))
				tok, _, err := n.DB().Apply(b)
				return tok, err
			}
			rotated, err := apply()
			if err != nil || rotated.Wait() != nil {
				t.Fatalf("commit before rotation: %v", err)
			}
			if err := n.DB().Flush(); err != nil { // a new WAL, a new counter
				t.Fatal(err)
			}
			before, err := apply()
			if err != nil || before.Wait() != nil {
				t.Fatalf("commit before crash: %v", err)
			}
			c.CrashNode(0)
			if err := rotated.Wait(); err == nil {
				t.Fatal("a token on a WAL rotated away before Crash still waits out to success")
			}
			if err := before.Wait(); err == nil {
				t.Fatal("a token handed out before Crash still waits out to success")
			}
			// The abandoned engine either refuses the commit or hands out a
			// token that can never be waited out.
			if tok, err := apply(); err == nil && (tok.Wait() == nil || !tok.Ready()) {
				t.Fatal("a commit after Crash can still be acknowledged")
			}
		})
	}
}
