package twopc

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/txn"
)

// testNode is one cluster node: engine + txn manager + participant +
// coordinator, all over a shared simnet.
type testNode struct {
	id     uint64
	addr   string
	dir    string
	db     *lsm.DB
	mgr    *txn.Manager
	part   *Participant
	coord  *Coordinator
	clog   *Clog
	ep     *erpc.Endpoint
	poller *erpc.Poller
	sched  *fibers.Scheduler
	reg    *obs.Registry
}

// testCluster is an N-node cluster.
type testCluster struct {
	t     *testing.T
	net   *simnet.Network
	nodes []*testNode
	key   seal.Key
	ctrs  *sharedCounters
	shard *shardmap.Holder
	// workers and timeout shape every node started after they are set
	// (newTestCluster's defaults: 4 scheduler workers, 3 s coordinator
	// timeout).
	workers int
	timeout time.Duration
}

// owner resolves a key's owning address under the cluster's shard map.
func (tc *testCluster) owner(k []byte) string {
	return tc.shard.View().Owner(k)
}

// sharedCounters is an immediate trusted-counter service shared across
// node restarts.
type sharedCounters struct {
	m map[string]*fakeCounter
}

type fakeCounter struct {
	v atomic.Uint64
	// withhold makes the counter look as if its round never completes:
	// StableValue reads 0 until it is cleared. Changed, which only a
	// waiter on a withheld value reaches, has it look again every
	// millisecond.
	withhold atomic.Bool
}

func (c *fakeCounter) Stabilize(v uint64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}
func (c *fakeCounter) WaitStable(uint64) error { return nil }
func (c *fakeCounter) StableValue() uint64 {
	if c.withhold.Load() {
		return 0
	}
	return c.v.Load()
}
func (c *fakeCounter) Failed() error { return nil }
func (c *fakeCounter) Changed() <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(time.Millisecond, func() { close(ch) })
	return ch
}
func (c *fakeCounter) Fail(error) {}

func (s *sharedCounters) factory(prefix string) lsm.CounterFactory {
	return func(name string) durlog.TrustedCounter {
		full := prefix + "/" + name
		if c, ok := s.m[full]; ok {
			return c
		}
		c := &fakeCounter{}
		s.m[full] = c
		return c
	}
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newShapedCluster(t, n, 4, 3*time.Second)
}

// newShapedCluster is newTestCluster with the scheduler width and the
// coordinator timeout chosen by the test.
func newShapedCluster(t *testing.T, n, workers int, timeout time.Duration) *testCluster {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		t:    t,
		net:  simnet.New(simnet.LinkConfig{}, 11),
		key:  key,
		ctrs: &sharedCounters{m: make(map[string]*fakeCounter)},

		workers: workers,
		timeout: timeout,
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d", i)
	}
	members := make([]shardmap.Member, n)
	for i := range addrs {
		members[i] = shardmap.Member{ID: uint64(i), Addr: addrs[i]}
	}
	tc.shard = shardmap.NewHolder(shardmap.Uniform(members))
	for i := 0; i < n; i++ {
		tc.nodes = append(tc.nodes, tc.startNode(uint64(i), addrs[i], t.TempDir()))
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			if nd != nil {
				nd.coord.Drain()
			}
		}
		for _, nd := range tc.nodes {
			if nd != nil {
				if err := checkLaws(nd.reg); err != nil {
					t.Errorf("%s: %v", nd.addr, err)
				}
			}
		}
		for _, nd := range tc.nodes {
			if nd != nil {
				tc.stopNode(nd)
			}
		}
		tc.net.Close()
	})
	return tc
}

// checkLaws checks a quiet node's conservation laws, retrying a violation
// for up to two seconds: a snapshot is not one atomic cut.
func checkLaws(reg *obs.Registry) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := reg.CheckLaws()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// startNode builds a node (dir persists across restarts).
func (tc *testCluster) startNode(id uint64, addr, dir string) *testNode {
	tc.t.Helper()
	nep, err := tc.net.Listen(addr)
	if err != nil {
		tc.t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID:    id,
		Transport: erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
		Secure:    true, NetworkKey: tc.key,
		Metrics: reg,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	db, err := lsm.Open(lsm.Options{
		Dir: dir, Level: seal.LevelEncrypted, Key: tc.key,
		Counters: tc.ctrs.factory(addr),
		Metrics:  reg,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	mgr := txn.NewManager(txn.Config{DB: db, LockTimeout: 500 * time.Millisecond, WaitStable: true})
	sched := fibers.New(tc.workers, nil)
	sched.Observe(reg)
	part := NewParticipant(ParticipantConfig{
		Manager: mgr, Endpoint: ep, Scheduler: sched, IdleTimeout: 5 * time.Second,
		NodeID: id, Shard: tc.shard,
		Metrics: reg,
	})
	clogCtr := tc.ctrs.factory(addr)("CLOG-000001")
	clog, recovered, err := OpenClog(nil, dir, seal.LevelEncrypted, tc.key, nil, clogCtr, int64(clogCtr.StableValue()))
	if err != nil {
		tc.t.Fatal(err)
	}
	clog.Configure(ClogTuning{Metrics: reg})
	coord := NewCoordinator(CoordinatorConfig{
		NodeID: id, Endpoint: ep, Participant: part, Clog: clog, Shard: tc.shard,
		Timeout: tc.timeout, Recovered: recovered,
		Metrics: reg,
	})
	if err := part.RestorePrepared(db.RecoveredPrepared()); err != nil {
		tc.t.Fatal(err)
	}
	nd := &testNode{
		id: id, addr: addr, dir: dir, db: db, mgr: mgr,
		part: part, coord: coord, clog: clog, ep: ep, sched: sched,
		reg: reg,
	}
	nd.poller = erpc.StartPoller(ep)
	return nd
}

// stopNode shuts a node down cleanly.
func (tc *testCluster) stopNode(nd *testNode) {
	nd.poller.Stop()
	nd.part.Close()
	nd.sched.Stop()
	nd.clog.Close()
	nd.db.Close()
	nd.ep.Close()
}

// crashNode kills a node without any graceful shutdown (in-memory state
// lost; files remain). The address is freed for a restart.
func (tc *testCluster) crashNode(i int) {
	nd := tc.nodes[i]
	nd.poller.Stop()
	nd.ep.Close()
	// The logs and the DB are abandoned (no Close): memtable contents are
	// "lost", only synced files survive — crash-fail semantics — and a
	// commit push still running cannot write the restarted node's files.
	nd.clog.Abandon()
	nd.db.Abandon()
	tc.nodes[i] = nil
}

// shortIdle swaps node i's participant for one without route enforcement
// that reclaims transactions idle for d, and wires the node's coordinator
// and it to each other.
func (tc *testCluster) shortIdle(i int, d time.Duration) *testNode {
	nd := tc.nodes[i]
	nd.part.Close()
	nd.part = NewParticipant(ParticipantConfig{
		Manager: nd.mgr, Endpoint: nd.ep, Scheduler: nd.sched,
		IdleTimeout: d,
	})
	nd.coord.part, nd.part.coord = nd.part, nd.coord
	return nd
}

// restartNode brings a crashed node back from its directory.
func (tc *testCluster) restartNode(i int, addr string, dir string) *testNode {
	nd := tc.startNode(uint64(i), addr, dir)
	tc.nodes[i] = nd
	return nd
}

func distGet(t *testing.T, tx *DistTxn, key string) (string, bool) {
	t.Helper()
	v, ok, err := tx.Get([]byte(key))
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func TestDistributedCommitAcrossShards(t *testing.T) {
	tc := newTestCluster(t, 3)
	coord := tc.nodes[0].coord

	tx := coord.Begin(nil)
	// Write enough keys to hit all shards.
	for i := 0; i < 12; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// All keys visible through a new transaction (from another node).
	tx2 := tc.nodes[1].coord.Begin(nil)
	for i := 0; i < 12; i++ {
		v, ok := distGet(t, tx2, fmt.Sprintf("key-%d", i))
		if !ok || v != fmt.Sprintf("val-%d", i) {
			t.Errorf("key-%d = %q/%v", i, v, ok)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedRollback(t *testing.T) {
	tc := newTestCluster(t, 3)
	tx := tc.nodes[0].coord.Begin(nil)
	for i := 0; i < 6; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("rb-%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2 := tc.nodes[0].coord.Begin(nil)
	for i := 0; i < 6; i++ {
		if _, ok := distGet(t, tx2, fmt.Sprintf("rb-%d", i)); ok {
			t.Errorf("rolled-back key rb-%d visible", i)
		}
	}
	tx2.Rollback()
}

func TestDistributedReadMyWrites(t *testing.T) {
	tc := newTestCluster(t, 3)
	tx := tc.nodes[0].coord.Begin(nil)
	if err := tx.Put([]byte("mykey"), []byte("myval")); err != nil {
		t.Fatal(err)
	}
	if v, ok := distGet(t, tx, "mykey"); !ok || v != "myval" {
		t.Errorf("RYOW across network = %q/%v", v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCoLocatedOpsSendNoPacket: the coordinator's own node is reached by
// calls into its participant — keyed operations and its legs of the
// prepare and commit fan-outs alike. A transaction whose keys all live on
// the coordinator's node enqueues no request and sends no packet from
// Begin through Commit. A mixed one enqueues exactly one request per
// remote operation, per remote prepare leg and per remote commit leg, and
// each costs two packets. The commits then read back every key.
func TestCoLocatedOpsSendNoPacket(t *testing.T) {
	tc := newTestCluster(t, 3)
	const k, m = 4, 5
	var local, remote []string
	remoteOwners := map[string]bool{}
	for i := 0; len(local) < k || len(remote) < m; i++ {
		key := fmt.Sprintf("coloc-%d", i)
		if owner := tc.owner([]byte(key)); owner == "node-0" {
			if len(local) < k {
				local = append(local, key)
			}
		} else if len(remote) < m {
			remote = append(remote, key)
			remoteOwners[owner] = true
		}
	}
	enqueued := func() uint64 { return tc.counterOn(0, "erpc.req.enqueued") }
	run := func(keys []string, wantReqs uint64) {
		t.Helper()
		req0, sent0 := enqueued(), tc.net.Stats().Sent
		tx := tc.nodes[0].coord.Begin(nil)
		for _, key := range keys {
			if err := tx.Put([]byte(key), []byte("v-"+key)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tc.nodes[0].coord.Drain() // the commit legs go out after Commit returns
		if got := enqueued() - req0; got != wantReqs {
			t.Errorf("%d keys: erpc.req.enqueued advanced by %d from Begin through the commit push, want %d", len(keys), got, wantReqs)
		}
		if got := tc.net.Stats().Sent - sent0; got != 2*wantReqs {
			t.Errorf("%d keys: simnet sent %d packets from Begin through the commit push, want %d", len(keys), got, 2*wantReqs)
		}
	}
	run(local, 0)
	// Every remote owner took a write: one prepare and one commit leg each.
	run(append(append([]string(nil), local...), remote...), uint64(m+2*len(remoteOwners)))
	if got := tc.counterOn(0, "erpc.req.self"); got != 0 {
		t.Errorf("erpc.req.self = %d, want 0: node-0 sent itself a request", got)
	}

	check := tc.nodes[0].coord.Begin(nil)
	for _, key := range append(local, remote...) {
		if v, ok := distGet(t, check, key); !ok || v != "v-"+key {
			t.Errorf("%s = %q/%v after commit", key, v, ok)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionAfterFinishAcks: a decision that finds its transaction
// already finished is acknowledged ("If a node has already committed the
// Tx, this message is ignored", §VI): a commit pushed twice, two commits
// that both found the prepared transaction before either applied it, and
// a push landing after ResolveRecovered applied the decision. Resolving
// a transaction this node coordinates asks its own coordinator by a call.
func TestDecisionAfterFinishAcks(t *testing.T) {
	tc := newTestCluster(t, 2)
	coord := tc.nodes[0].coord
	n := 0
	prepare := func(owner string) *DistTxn {
		t.Helper()
		var key []byte
		for key == nil {
			n++
			if k := []byte(fmt.Sprintf("done-%d", n)); tc.owner(k) == owner {
				key = k
			}
		}
		tx := coord.Begin(nil)
		if err := tx.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.broadcast(ReqPrepare, tx.participants()); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		coord.record(tx.id, true)
		return tx
	}
	push := func(tx *DistTxn, what string) {
		t.Helper()
		if _, err := tx.broadcast(ReqCommit, tx.participants()); err != nil {
			t.Errorf("%s: commit push = %v, want an ACK", what, err)
		}
	}

	tx := prepare("node-1")
	push(tx, "first push")
	push(tx, "second push")

	part := tc.nodes[1].part
	tx = prepare("node-1")
	at := part.find(tx.id, false)
	at.mu.Lock()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := part.control(nil, ReqCommit, tx.id)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // both find the transaction and wait for at.mu
	at.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("racing commit %d = %v, want an ACK", i, err)
		}
	}

	addrOf := func(id uint64) string { return fmt.Sprintf("node-%d", id) }
	for i, owner := range []string{"node-1", "node-0"} {
		tx = prepare(owner)
		req0 := tc.counterOn(i, "erpc.req.enqueued")
		if err := tc.nodes[i].part.ResolveRecovered(addrOf); err != nil {
			t.Fatal(err)
		}
		if a := tc.nodes[i].part.ActiveCount(); a != 0 {
			t.Errorf("%s holds %d transactions after ResolveRecovered", owner, a)
		}
		if got := tc.counterOn(i, "erpc.req.enqueued") - req0; i == 0 && got != 0 {
			t.Errorf("resolving its own coordinator's transaction enqueued %d requests, want 0", got)
		}
		push(tx, "push after ResolveRecovered on "+owner)
	}
	for i, want := range []uint64{1, 3} {
		if got := tc.counterOn(i, "twopc.part.commits"); got != want {
			t.Errorf("node-%d committed %d transactions, want %d", i, got, want)
		}
	}
}

// TestCommitAnswersAtDecision: a two-phase commit answers its client once
// the decision is stable, and pushes the commits after the answer. With
// every ReqCommit to node-1 dropped, Commit succeeds, the decision reads
// committed and node-1 still holds its part prepared, locks and all: a
// reader from another coordinator waits on the key until the fault lifts
// and the re-pushed commit lands, then reads the committed value.
func TestCommitAnswersAtDecision(t *testing.T) {
	tc := newTestCluster(t, 3)
	coord := tc.nodes[0].coord
	coord.timeout = 100 * time.Millisecond // what each dropped push costs
	key, _ := tc.keyInSlotOwnedBy("node-1")
	other, _ := tc.keyInSlotOwnedBy("node-2")
	var faulty atomic.Bool
	faulty.Store(true)
	tc.net.SetAdversary(simnet.FuncAdversary(func(pkt simnet.Packet) simnet.Verdict {
		// The erpc header is cleartext: byte 1 is the request type, byte 2
		// the flags (bit 0: response).
		isCommit := len(pkt.Data) > 2 && pkt.Data[1] == ReqCommit && pkt.Data[2]&1 == 0
		return simnet.Verdict{Drop: isCommit && pkt.To == "node-1" && faulty.Load()}
	}))

	tx := coord.Begin(nil)
	for _, k := range []string{key, other} {
		if err := tx.Put([]byte(k), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit = %v with node-1's commit dropped, want nil", err)
	}
	if commit, decided := coord.Decision(tx.ID()); !commit || !decided {
		t.Fatalf("Decision = %v/%v after Commit returned, want committed", commit, decided)
	}
	if at := tc.nodes[1].part.find(tx.ID(), false); at == nil || !at.prepared.Load() {
		t.Fatal("node-1 does not hold the transaction prepared while its commit is dropped")
	}

	type read struct {
		v       string
		ok      bool
		err     error
		settled time.Time
	}
	reads := make(chan read, 1)
	go func() {
		rd := tc.nodes[2].coord.Begin(nil)
		v, ok, err := rd.Get([]byte(key))
		r := read{string(v), ok, err, time.Now()}
		_ = rd.Rollback()
		reads <- r
	}()
	time.Sleep(30 * time.Millisecond)
	select {
	case r := <-reads:
		t.Fatalf("reader got %q/%v/%v while node-1 held the transaction prepared", r.v, r.ok, r.err)
	default:
	}
	lifted := time.Now()
	faulty.Store(false)
	r := <-reads
	if r.err != nil || !r.ok || r.v != "new" {
		t.Fatalf("reader got %q/%v/%v after the fault lifted, want the committed value", r.v, r.ok, r.err)
	}
	if r.settled.Before(lifted) {
		t.Error("the reader returned before the fault lifted")
	}
	coord.Drain()
	if a := tc.nodes[1].part.ActiveCount(); a != 0 {
		t.Errorf("node-1 holds %d transactions after the push ended", a)
	}
}

// TestAdoptedPrepareIsAborted: a successor adopting a dead coordinator's
// Clog aborts a transaction that logged its prepare but no decision, even
// when every live participant would vote yes. The dead primary's address
// is rewritten to the successor's, so the successor's one vote would
// stand for its own part and for the dead primary's part.
func TestAdoptedPrepareIsAborted(t *testing.T) {
	tc := newTestCluster(t, 2)
	var key []byte
	for i := 0; key == nil; i++ {
		if k := []byte(fmt.Sprintf("adopt-%d", i)); tc.owner(k) == "node-1" {
			key = k
		}
	}
	// node-0 plays the dead primary: its transaction holds a prepared part
	// on node-1, and its mirrored Clog names both nodes.
	tx := tc.nodes[0].coord.Begin(nil)
	if err := tx.Put(key, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.broadcast(ReqPrepare, []string{"node-1"}); err != nil {
		t.Fatal(err)
	}
	records := []durlog.Entry{{Kind: clogPrepare, Counter: 1,
		Payload: encodeClogPayload(tx.id, false, []string{"node-0", "node-1"})}}
	toSuccessor := func(a string) string {
		if a == "node-0" {
			return "node-1"
		}
		return a
	}
	successor := tc.nodes[1]
	if err := successor.coord.AdoptRecovered(records, toSuccessor, nil); err != nil {
		t.Fatal(err)
	}
	if commit, decided := successor.coord.Decision(tx.id); !decided || commit {
		t.Errorf("adopted undecided prepare: decision = %v/%v, want presumed abort", commit, decided)
	}
	if a := successor.part.ActiveCount(); a != 0 {
		t.Errorf("successor still holds %d transactions", a)
	}
	check := successor.coord.Begin(nil)
	if v, ok := distGet(t, check, string(key)); ok {
		t.Errorf("%s = %q: the adopted undecided transaction committed", key, v)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedIsolationConflict(t *testing.T) {
	tc := newTestCluster(t, 3)
	t1 := tc.nodes[0].coord.Begin(nil)
	if err := t1.Put([]byte("contended"), []byte("t1")); err != nil {
		t.Fatal(err)
	}
	// t2 (different coordinator) conflicts on the same key and times out.
	t2 := tc.nodes[1].coord.Begin(nil)
	err := t2.Put([]byte("contended"), []byte("t2"))
	if err == nil {
		t.Fatal("conflicting write must fail while t1 holds the lock")
	}
	t2.Rollback()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t3 := tc.nodes[1].coord.Begin(nil)
	if v, ok := distGet(t, t3, "contended"); !ok || v != "t1" {
		t.Errorf("contended = %q/%v", v, ok)
	}
	t3.Rollback()
}

func TestDistributedAtomicityTransfer(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Seed two accounts on (likely) different shards.
	seed := tc.nodes[0].coord.Begin(nil)
	if err := seed.Put([]byte("acct-alice"), []byte{100}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Put([]byte("acct-bob"), []byte{50}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	// Transfer 30.
	tx := tc.nodes[1].coord.Begin(nil)
	av, _ := distGet(t, tx, "acct-alice")
	bv, _ := distGet(t, tx, "acct-bob")
	if err := tx.Put([]byte("acct-alice"), []byte{av[0] - 30}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("acct-bob"), []byte{bv[0] + 30}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := tc.nodes[2].coord.Begin(nil)
	a, _ := distGet(t, check, "acct-alice")
	b, _ := distGet(t, check, "acct-bob")
	if a[0] != 70 || b[0] != 80 {
		t.Errorf("balances = %d/%d, want 70/80", a[0], b[0])
	}
	check.Rollback()
}

func TestCommitWithFibersYield(t *testing.T) {
	tc := newTestCluster(t, 3)
	sched := fibers.New(2, nil)
	defer sched.Stop()
	done := make(chan error, 1)
	_, err := sched.Go(func(f *fibers.Fiber) {
		tx := tc.nodes[0].coord.Begin(f)
		for i := 0; i < 6; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("fib-%d", i)), []byte("v")); err != nil {
				done <- err
				return
			}
		}
		done <- tx.Commit()
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fiber transaction hung")
	}
}

func TestParticipantCrashBeforePrepareAborts(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Partition node-2 away mid-transaction: prepare cannot reach it.
	tx := tc.nodes[0].coord.Begin(nil)
	wrote := 0
	for i := 0; wrote < 8; i++ {
		key := fmt.Sprintf("part-%d", i)
		if err := tx.Put([]byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	tc.net.Partition("node-0", "node-2")
	err := tx.Commit()
	if tc.owner([]byte("anything")) == "" {
		t.Fatal("router broken")
	}
	// If node-2 held any keys, the commit must abort; otherwise it may
	// succeed. Either way the outcome must be atomic.
	if err != nil && !errors.Is(err, ErrAborted) {
		t.Fatalf("unexpected error: %v", err)
	}
	tc.net.Heal("node-0", "node-2")
	commit, decided := tc.nodes[0].coord.Decision(tx.ID())
	if !decided {
		t.Fatal("coordinator must have decided")
	}
	// Verify atomicity: all keys present iff committed.
	check := tc.nodes[0].coord.Begin(nil)
	present := 0
	for i := 0; i < 8; i++ {
		if _, ok := distGet(t, check, fmt.Sprintf("part-%d", i)); ok {
			present++
		}
	}
	check.Rollback()
	if commit && present != 8 {
		t.Errorf("committed but only %d/8 keys visible", present)
	}
	if !commit && present != 0 {
		t.Errorf("aborted but %d keys visible", present)
	}
}

func TestCoordinatorCrashRecoveryCommitsDecided(t *testing.T) {
	tc := newTestCluster(t, 3)
	coordNode := tc.nodes[0]

	// Run a committed transaction, then crash the coordinator node and
	// restart it: the decision must survive in the Clog and be re-pushed.
	tx := coordNode.coord.Begin(nil)
	for i := 0; i < 9; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("crash-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	id := tx.ID()
	addr, dir := coordNode.addr, coordNode.dir
	tc.crashNode(0)

	nd := tc.restartNode(0, addr, dir)
	commit, decided := nd.coord.Decision(id)
	if !decided || !commit {
		t.Fatalf("recovered decision = %v/%v, want commit", commit, decided)
	}
	if err := nd.coord.RecoverPending(nil); err != nil {
		t.Fatal(err)
	}
	// Data still visible cluster-wide.
	check := tc.nodes[1].coord.Begin(nil)
	for i := 0; i < 9; i++ {
		if _, ok := distGet(t, check, fmt.Sprintf("crash-%d", i)); !ok {
			t.Errorf("crash-%d missing after coordinator recovery", i)
		}
	}
	check.Rollback()
}

// TestStatusQueryAnswers: a coordinator answers a participant's status
// query from its logged decision. Only a transaction with two or more
// writers logs one, so this one writes on node-0 and node-1.
func TestStatusQueryAnswers(t *testing.T) {
	tc := newTestCluster(t, 3)
	tx := tc.nodes[0].coord.Begin(nil)
	for _, owner := range []string{"node-0", "node-1"} {
		for i := 0; ; i++ {
			if k := []byte(fmt.Sprintf("status-%d", i)); tc.owner(k) == owner {
				if err := tx.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Ask node-0's coordinator from node-1's endpoint.
	id := tx.ID()
	md := seal.MsgMetadata{TxID: 999, OpID: 1}
	resp, err := erpc.Call(tc.nodes[1].ep, "node-0", ReqTxStatus, md, id[:], 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0] != StatusCommit {
		t.Errorf("status = %v, want commit", resp)
	}
	// Unknown transaction: presumed abort.
	var unknown lsm.TxID
	copy(unknown[:], "never-existed!!!")
	resp, err = erpc.Call(tc.nodes[1].ep, "node-0", ReqTxStatus, seal.MsgMetadata{TxID: 998, OpID: 1}, unknown[:], 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != StatusAbort {
		t.Errorf("unknown tx status = %v, want abort", resp)
	}
}

func TestSequentialTransactionsManyClients(t *testing.T) {
	tc := newTestCluster(t, 3)
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		go func(c int) {
			coord := tc.nodes[c%3].coord
			for i := 0; i < 10; i++ {
				tx := coord.Begin(nil)
				key := fmt.Sprintf("client-%d-%d", c, i)
				if err := tx.Put([]byte(key), []byte("v")); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < 8; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Spot check.
	check := tc.nodes[0].coord.Begin(nil)
	if _, ok := distGet(t, check, "client-7-9"); !ok {
		t.Error("client-7-9 missing")
	}
	check.Rollback()
}

func TestClogRoundTripAndTamper(t *testing.T) {
	dir := t.TempDir()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &fakeCounter{}
	clog, recovered, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatal("fresh clog must be empty")
	}
	id := globalTxID(3, 77)
	if _, err := clog.Append(clogPrepare, id, false, []string{"node-1", "node-2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := clog.Append(clogDecision, id, true, []string{"node-1", "node-2"}); err != nil {
		t.Fatal(err)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}

	_, entries, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, int64(ctr.StableValue()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2", len(entries))
	}
	if entries[0].Kind != clogPrepare || entries[1].Kind != clogDecision || !entries[1].Commit {
		t.Errorf("entries = %+v", entries)
	}
	if entries[0].TxID != id || len(entries[0].Participants) != 2 {
		t.Errorf("prepare entry = %+v", entries[0])
	}
	node, seq := splitTxID(entries[0].TxID)
	if node != 3 || seq != 77 {
		t.Errorf("txid split = %d/%d", node, seq)
	}
}

func TestJanitorReclaimsAbandonedTxns(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Shrink the idle timeout on one participant.
	nd := tc.shortIdle(1, 100*time.Millisecond)

	// A coordinator writes to node-1 and then disappears (never commits).
	tx := tc.nodes[0].coord.Begin(nil)
	var victim string
	for i := 0; ; i++ {
		k := fmt.Sprintf("abandon-%d", i)
		if tc.owner([]byte(k)) == "node-1" {
			victim = k
			break
		}
	}
	if err := tx.Put([]byte(victim), []byte("locked")); err != nil {
		t.Fatal(err)
	}
	if nd.part.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1", nd.part.ActiveCount())
	}
	// The janitor must abort it and release the lock.
	deadline := time.Now().Add(3 * time.Second)
	for nd.part.ActiveCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the abandoned transaction")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The key is writable again by a fresh transaction.
	tx2 := tc.nodes[2].coord.Begin(nil)
	if err := tx2.Put([]byte(victim), []byte("fresh")); err != nil {
		t.Fatalf("lock not released after janitor: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyOptimization(t *testing.T) {
	tc := newTestCluster(t, 3)
	seed := tc.nodes[0].coord.Begin(nil)
	for i := 0; i < 6; i++ {
		if err := seed.Put([]byte(fmt.Sprintf("ro-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// A purely read-only distributed transaction: every participant votes
	// read-only at prepare and releases immediately. The coordinator logs
	// nothing and records no decision — Commit must succeed and leave no
	// active state behind.
	tx := tc.nodes[1].coord.Begin(nil)
	for i := 0; i < 6; i++ {
		if _, ok := distGet(t, tx, fmt.Sprintf("ro-%d", i)); !ok {
			t.Fatalf("ro-%d missing", i)
		}
	}
	appends := tc.counterOn(1, "twopc.clog.appends")
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	if commit, decided := tc.nodes[1].coord.Decision(tx.ID()); decided {
		t.Errorf("read-only txn recorded a decision (commit=%v)", commit)
	}
	if d := tc.counterOn(1, "twopc.clog.appends") - appends; d != 0 {
		t.Errorf("read-only commit appended %d Clog records, want 0", d)
	}
	// Participants must have dropped the transaction at prepare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, nd := range tc.nodes {
			total += nd.part.ActiveCount()
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions still active after read-only commit", total)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Mixed transaction: reads on some shards, writes on others — the
	// writers get the decision, the readers release early, and the
	// writes are visible afterwards.
	tx2 := tc.nodes[0].coord.Begin(nil)
	if _, ok := distGet(t, tx2, "ro-0"); !ok {
		t.Fatal("read failed")
	}
	if err := tx2.Put([]byte("mixed-write"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	check := tc.nodes[2].coord.Begin(nil)
	if v, ok := distGet(t, check, "mixed-write"); !ok || v != "w" {
		t.Errorf("mixed-write = %q/%v", v, ok)
	}
	check.Rollback()
}

func TestClogStableAndLastCounter(t *testing.T) {
	dir := t.TempDir()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &manualCounter{}
	clog, _, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	id := globalTxID(1, 1)
	if _, err := clog.Append(clogPrepare, id, false, []string{"n1"}); err != nil {
		t.Fatal(err)
	}
	if clog.LastCounter() != 1 {
		t.Errorf("LastCounter = %d", clog.LastCounter())
	}
	if clog.Stable() {
		t.Error("entry not yet stabilized; Stable must be false")
	}
	ctr.set(1)
	if !clog.Stable() {
		t.Error("all entries stabilized; Stable must be true")
	}
}

func TestClogRollbackDetected(t *testing.T) {
	// Write two entries, stabilize both, then present a log truncated to
	// one entry: recovery must refuse (freshness violation, §VI).
	dir := t.TempDir()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &fakeCounter{}
	clog, _, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	id := globalTxID(1, 1)
	if _, err := clog.Append(clogPrepare, id, false, []string{"n1"}); err != nil {
		t.Fatal(err)
	}
	data1, err := os.ReadFile(clogName(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clog.Append(clogDecision, id, true, []string{"n1"}); err != nil {
		t.Fatal(err)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}
	// The adversary rolls the file back to the one-entry snapshot.
	if err := os.WriteFile(clogName(dir), data1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, int64(ctr.StableValue()))
	if !errors.Is(err, durlog.ErrRollbackDetected) {
		t.Fatalf("got %v, want ErrRollbackDetected", err)
	}
}

func TestClogTamperDetected(t *testing.T) {
	dir := t.TempDir()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	ctr := &fakeCounter{}
	clog, _, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clog.Append(clogPrepare, globalTxID(1, 1), false, []string{"n1"}); err != nil {
		t.Fatal(err)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(clogName(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(clogName(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenClog(nil, dir, seal.LevelEncrypted, key, nil, ctr, int64(ctr.StableValue())); err == nil {
		t.Fatal("tampered clog accepted")
	}
}

// manualCounter lets tests control the stable value explicitly.
type manualCounter struct{ v atomic.Uint64 }

func (c *manualCounter) Stabilize(uint64)         {}
func (c *manualCounter) WaitStable(uint64) error  { return nil }
func (c *manualCounter) StableValue() uint64      { return c.v.Load() }
func (c *manualCounter) Failed() error            { return nil }
func (c *manualCounter) Changed() <-chan struct{} { return nil }
func (c *manualCounter) Fail(error)               {}
func (c *manualCounter) set(v uint64)             { c.v.Store(v) }

// TestDistTxnOutcome pins the outcome classification the serializability
// auditor depends on: a clean commit is Committed, a client rollback is
// definitely Aborted (no prepare record was ever logged), and a failed
// Commit call is Indeterminate — never Aborted — because RecoverPending
// may still push the decision through after the error was returned.
func TestDistTxnOutcome(t *testing.T) {
	tc := newTestCluster(t, 3)

	tx := tc.nodes[0].coord.Begin(nil)
	if tx.Outcome() != TxnPending {
		t.Fatalf("fresh txn outcome = %v, want pending", tx.Outcome())
	}
	if err := tx.Put([]byte("oc-commit"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Outcome() != TxnCommitted {
		t.Fatalf("committed txn outcome = %v, want committed", tx.Outcome())
	}

	tx = tc.nodes[0].coord.Begin(nil)
	if err := tx.Put([]byte("oc-rollback"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tx.Outcome() != TxnAborted {
		t.Fatalf("rolled-back txn outcome = %v, want aborted", tx.Outcome())
	}

	// Write a key owned by node 2, crash node 2, then commit: the
	// coordinator cannot reach the participant, Commit errors, and the
	// outcome must be Indeterminate (recovery could still commit it).
	victim := ""
	for i := 0; ; i++ {
		victim = fmt.Sprintf("oc-remote-%d", i)
		if tc.owner([]byte(victim)) == "node-2" {
			break
		}
	}
	tx = tc.nodes[0].coord.Begin(nil)
	if err := tx.Put([]byte(victim), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tc.crashNode(2)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit against a crashed participant succeeded")
	}
	if tx.Outcome() != TxnIndeterminate {
		t.Fatalf("failed commit outcome = %v, want indeterminate", tx.Outcome())
	}
}

// TestCoordinatorCrashMidPrepareReleasesParticipants: a coordinator that
// crashes between its (deferred, hence unstabilized) prepare record and a
// decision comes back without the record in its stabilized Clog — but it
// finds it in the tail recovery drops, presumes abort, and tells the
// participants, which would otherwise hold the prepared transaction and
// its locks until their own next restart.
func TestCoordinatorCrashMidPrepareReleasesParticipants(t *testing.T) {
	tc := newTestCluster(t, 3)
	coordNode := tc.nodes[0]
	tx := coordNode.coord.Begin(nil)
	for i := 0; i < 9; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("mid-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The first half of Commit: log the prepare record, collect the votes.
	parts := tx.participants()
	if _, err := coordNode.clog.Append(clogPrepare, tx.ID(), false, parts); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.broadcast(ReqPrepare, parts); err != nil {
		t.Fatalf("prepare phase: %v", err)
	}
	if coordNode.clog.Stable() {
		t.Fatal("the prepare record must not have been stabilized: nobody waits on it")
	}
	prepared := 0
	for _, nd := range tc.nodes[1:] {
		prepared += nd.part.ActiveCount()
	}
	if prepared == 0 {
		t.Fatal("vacuous: no remote participant holds the prepared transaction")
	}

	addr, dir := coordNode.addr, coordNode.dir
	tc.crashNode(0)
	nd := tc.restartNode(0, addr, dir)
	if commit, decided := nd.coord.Decision(tx.ID()); !decided || commit {
		t.Fatalf("dropped prepare record: decision = %v/%v, want presumed abort", commit, decided)
	}
	if err := nd.coord.RecoverPending(nil); err != nil {
		t.Fatal(err)
	}
	for i, n := range tc.nodes {
		if a := n.part.ActiveCount(); a != 0 {
			t.Errorf("node %d still holds %d prepared transactions after the coordinator recovered", i, a)
		}
	}
	check := tc.nodes[1].coord.Begin(nil)
	for i := 0; i < 9; i++ {
		if _, ok := distGet(t, check, fmt.Sprintf("mid-%d", i)); ok {
			t.Errorf("mid-%d visible: the presumed-abort transaction committed", i)
		}
	}
	check.Rollback()
}

// withhold sets or clears the withhold flag on every counter of addr.
func (s *sharedCounters) withhold(addr string, on bool) {
	for name, c := range s.m {
		if strings.HasPrefix(name, addr+"/") {
			c.withhold.Store(on)
		}
	}
}

// TestDecisionDuringPrepareWaitDoesNotWedge: a prepare (control) holds the
// transaction's mutex across its stabilization wait, and so does a sole
// writer's one-phase commit. When the coordinator gives up on it and its
// abort arrives meanwhile, the abort handler — a fiber of the same
// worker, with one worker per node as the benchmark runs — must wait for
// the mutex parked. Blocking the worker thread on it left the waiting
// fiber unresumable and the node dead to every later transaction. The
// prepare case writes on node-0 too, so the transaction takes two phases.
func TestDecisionDuringPrepareWaitDoesNotWedge(t *testing.T) {
	for _, c := range []struct {
		name       string
		twoWriters bool
		want       string
	}{{"prepare", true, "prepare failed"}, {"one-phase", false, "one_phase_failed"}} {
		t.Run(c.name, func(t *testing.T) { testDecisionDuringWaitDoesNotWedge(t, c.twoWriters, c.want) })
	}
}

func testDecisionDuringWaitDoesNotWedge(t *testing.T, twoWriters bool, want string) {
	tc := newShapedCluster(t, 2, 1, 300*time.Millisecond)
	coord := tc.nodes[0].coord
	keyOn := func(owner string) []byte {
		for i := 0; ; i++ {
			if k := []byte(fmt.Sprintf("wedge-%d", i)); tc.owner(k) == owner {
				return k
			}
		}
	}
	key := keyOn("node-1")

	tx := coord.Begin(nil)
	if err := tx.Put(key, []byte("never")); err != nil {
		t.Fatal(err)
	}
	if twoWriters {
		if err := tx.Put(keyOn("node-0"), []byte("never")); err != nil {
			t.Fatal(err)
		}
	}
	tc.ctrs.withhold("node-1", true) // node-1's WAL record will not stabilize
	err := tx.Commit()
	tc.ctrs.withhold("node-1", false) // the counter recovers
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("commit over a participant that cannot stabilize: %v, want %q", err, want)
	}

	// node-1 must serve again once the late record and the abort behind
	// it have run: retry until a transaction on the same key commits.
	for watchdog := time.Now().Add(5 * time.Second); ; {
		tx := coord.Begin(nil)
		if err = tx.Put(key, []byte("after")); err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Rollback()
		}
		if err == nil {
			break
		}
		if time.Now().After(watchdog) {
			t.Fatalf("node-1 is wedged: 5 s after its counter recovered transactions still fail: %v", err)
		}
	}
	tx = coord.Begin(nil)
	if v, ok := distGet(t, tx, string(key)); !ok || v != "after" {
		t.Errorf("%s = %q/%v, want the later transaction's value", key, v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitTokenStabilizeTimeout: a decision whose counter round never
// completes costs its transaction 4 × the RPC timeout and then
// txn.ErrStabilizeTimeout — on a goroutine and on a fiber, which spends
// the wait parked.
func TestWaitTokenStabilizeTimeout(t *testing.T) {
	const timeout = 25 * time.Millisecond
	tc := newShapedCluster(t, 1, 1, timeout)
	nd := tc.nodes[0]
	token, err := nd.clog.Append(clogDecision, globalTxID(0, 99), true, []string{nd.addr})
	if err != nil {
		t.Fatal(err)
	}
	tc.ctrs.withhold(nd.addr, true)
	check := func(f *fibers.Fiber) {
		start := time.Now()
		err := nd.coord.Begin(f).waitToken(token)
		if !errors.Is(err, txn.ErrStabilizeTimeout) {
			t.Errorf("waitToken = %v, want ErrStabilizeTimeout", err)
		}
		if waited := time.Since(start); waited < 4*timeout || waited > 40*timeout {
			t.Errorf("waitToken gave up after %v, want about %v", waited, 4*timeout)
		}
	}
	check(nil)
	f, err := nd.sched.Go(check)
	if err != nil {
		t.Fatal(err)
	}
	nd.sched.Join(f)
	tc.ctrs.withhold(nd.addr, false)
	if err := nd.coord.Begin(nil).waitToken(token); err != nil {
		t.Errorf("waitToken after the counter recovered: %v", err)
	}
}
