package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treaty/internal/attest"
	"treaty/internal/counter"
	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/simnet"
	"treaty/internal/vfs"
)

// ClusterOptions configures an in-process cluster.
type ClusterOptions struct {
	// Nodes is the cluster size (0 = 3, the paper's testbed).
	Nodes int
	// Mode selects the security configuration.
	Mode SecurityMode
	// BaseDir hosts per-node storage directories (empty: a temp dir).
	BaseDir string
	// Link models the inter-node fabric (zero value: ideal links; the
	// paper's 40 GbE switch is ~5 GB/s with microsecond latency).
	Link simnet.LinkConfig
	// Workers sizes each node's userland scheduler.
	Workers int
	// LockTimeout bounds lock waits.
	LockTimeout time.Duration
	// TxnTimeout bounds 2PC round-trips and decision stabilization.
	TxnTimeout time.Duration
	// IdleTimeout reclaims participant transactions abandoned by dead
	// coordinators.
	IdleTimeout time.Duration
	// MemTableSize overrides the flush threshold.
	MemTableSize int64
	// Seed makes the network's randomness reproducible.
	Seed int64
	// NodeFS, when set, supplies a per-node filesystem for durable
	// writes (disk-fault injection). The same FS instance is reused when
	// the node restarts, so fault state and crash images persist across
	// a node's incarnations.
	NodeFS func(i int) vfs.FS
	// Replicate enables per-shard primary-backup replication on every
	// node (see NodeConfig.Replicate).
	Replicate bool
}

// counterReplicas is the size of the trusted counter protection group in
// the modes that stabilize on the counter service.
const counterReplicas = 3

// Cluster is an in-process Treaty deployment: N nodes, a CAS, an IAS, a
// trusted-counter protection group, and a simulated network — the whole
// testbed of §VIII-A in one process.
type Cluster struct {
	opts    ClusterOptions
	net     *simnet.Network
	ias     *attest.IAS
	cas     *attest.CAS
	nodes   []*Node
	nodeCfg []NodeConfig
	ctrs    []*counterReplica
	netKey  seal.Key
	baseDir string
	ownsDir bool
	clients int
}

// counterReplica is one member of the protection group. The enclave
// outlives the replica's incarnations: a restarted replica can only unseal
// its state under the same platform key, and a new platform mints a new one.
type counterReplica struct {
	addr    string
	encl    *enclave.Enclave
	ep      *erpc.Endpoint
	poller  *erpc.Poller
	replica *counter.Replica
	reg     *obs.Registry
}

// NewCluster boots a cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 3
	}
	c := &Cluster{
		opts:    opts,
		net:     simnet.New(opts.Link, opts.Seed),
		ias:     attest.NewIAS(),
		baseDir: opts.BaseDir,
	}
	if c.baseDir == "" {
		dir, err := os.MkdirTemp("", "treaty-cluster-")
		if err != nil {
			return nil, fmt.Errorf("core: temp dir: %w", err)
		}
		c.baseDir = dir
		c.ownsDir = true
	}

	netKey, err := seal.NewRandomKey()
	if err != nil {
		return nil, err
	}
	storKey, err := seal.NewRandomKey()
	if err != nil {
		return nil, err
	}
	c.netKey = netKey

	nodeAddrs := make([]string, opts.Nodes)
	for i := range nodeAddrs {
		nodeAddrs[i] = fmt.Sprintf("node-%d", i)
	}
	var ctrAddrs []string
	if opts.Mode.Policy().Counter == CounterService {
		ctrAddrs = make([]string, counterReplicas)
		for i := range ctrAddrs {
			ctrAddrs[i] = fmt.Sprintf("ctr-%d", i)
		}
	}

	c.cas = attest.NewCAS(c.ias, NodeMeasurement(), attest.ClusterConfig{
		NetworkKey:      netKey,
		StorageKey:      storKey,
		Nodes:           nodeAddrs,
		CounterReplicas: ctrAddrs,
	})

	// Trusted counter protection group (its own platforms).
	for i, addr := range ctrAddrs {
		cr, err := newCounterReplica(addr)
		if err == nil {
			c.ctrs = append(c.ctrs, cr)
			err = c.startCounterReplica(i)
		}
		if err != nil {
			c.Stop()
			return nil, err
		}
	}

	// Nodes.
	for i := 0; i < opts.Nodes; i++ {
		cfg, err := c.nodeConfig(uint64(i), nodeAddrs[i])
		if err != nil {
			c.Stop()
			return nil, err
		}
		n, err := StartNode(cfg)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("core: starting node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		c.nodeCfg = append(c.nodeCfg, cfg)
	}
	return c, nil
}

// nodeConfig builds the boot configuration for node i (fresh platform +
// LAS, persistent directory).
func (c *Cluster) nodeConfig(id uint64, addr string) (NodeConfig, error) {
	platform, err := enclave.NewPlatform(addr)
	if err != nil {
		return NodeConfig{}, err
	}
	c.ias.RegisterPlatform(platform)
	las, err := attest.NewLAS(platform)
	if err != nil {
		return NodeConfig{}, err
	}
	if err := c.cas.DeployLAS(las); err != nil {
		return NodeConfig{}, err
	}
	dir := filepath.Join(c.baseDir, addr)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return NodeConfig{}, err
	}
	var nfs vfs.FS
	if c.opts.NodeFS != nil {
		nfs = c.opts.NodeFS(int(id))
	}
	return NodeConfig{
		ID:           id,
		Addr:         addr,
		FS:           nfs,
		Dir:          dir,
		Mode:         c.opts.Mode,
		Net:          c.net,
		Platform:     platform,
		LAS:          las,
		CAS:          c.cas,
		Workers:      c.opts.Workers,
		LockTimeout:  c.opts.LockTimeout,
		TxnTimeout:   c.opts.TxnTimeout,
		IdleTimeout:  c.opts.IdleTimeout,
		MemTableSize: c.opts.MemTableSize,
		Replicate:    c.opts.Replicate,
	}, nil
}

// newCounterReplica launches a protection-group member's enclave on a
// platform of its own.
func newCounterReplica(addr string) (*counterReplica, error) {
	platform, err := enclave.NewPlatform(addr)
	if err != nil {
		return nil, err
	}
	encl, err := platform.Launch("treaty-counter", enclave.RuntimeConfig{Mode: enclave.ModeNative})
	if err != nil {
		return nil, err
	}
	return &counterReplica{addr: addr, encl: encl}, nil
}

// startCounterReplica boots an incarnation of protection-group member i:
// it listens on the member's address and loads the state its directory
// holds. Each incarnation gets a metrics registry of its own.
func (c *Cluster) startCounterReplica(i int) error {
	cr := c.ctrs[i]
	nep, err := c.net.Listen(cr.addr)
	if err != nil {
		return err
	}
	ep, err := erpc.NewEndpoint(erpc.Config{
		NodeID:     2000 + uint64(i),
		Transport:  erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
		NetworkKey: c.netKey,
		Secure:     true,
	})
	if err != nil {
		nep.Close()
		return err
	}
	dir := filepath.Join(c.baseDir, cr.addr)
	err = os.MkdirAll(dir, 0o755)
	if err == nil {
		cr.replica, err = counter.NewReplica(ep, cr.encl, dir)
	}
	if err != nil {
		ep.Close()
		return err
	}
	cr.reg = obs.NewRegistry()
	cr.replica.RegisterMetrics(cr.reg)
	cr.ep, cr.poller = ep, erpc.StartPoller(ep)
	return nil
}

// stop ends the replica's current incarnation, if it has one.
func (cr *counterReplica) stop() error {
	if cr.poller == nil {
		return nil
	}
	cr.poller.Stop()
	err := errors.Join(cr.ep.Close(), cr.replica.Close())
	cr.poller = nil
	return err
}

// RestartCounterReplica stops protection-group member i — event loop,
// endpoint, journal — and boots it again on the same address from its
// directory, with the same enclave: what it reports afterwards is what its
// snapshot and journal carried through.
func (c *Cluster) RestartCounterReplica(i int) error {
	if err := c.ctrs[i].stop(); err != nil {
		return err
	}
	return c.startCounterReplica(i)
}

// CounterSnapshot returns a metrics snapshot ("counter.replica.*") for
// every running member of the protection group, keyed by its address. It
// is not part of Snapshot, whose entries are all nodes.
func (c *Cluster) CounterSnapshot() map[string]obs.Snapshot {
	out := make(map[string]obs.Snapshot)
	for _, cr := range c.ctrs {
		if cr.poller != nil {
			out[cr.addr] = cr.reg.Snapshot()
		}
	}
	return out
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// LiveNodes returns the currently running nodes (crashed slots are
// skipped). The caller must serialize against CrashNode/RestartNode —
// the chaos harness holds its node lock across both.
func (c *Cluster) LiveNodes() []*Node {
	live := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n != nil {
			live = append(live, n)
		}
	}
	return live
}

// NodeAddr returns node i's RPC address — valid even while the node is
// crashed (it comes from the boot configuration, not the live node).
func (c *Cluster) NodeAddr(i int) string { return c.nodeCfg[i].Addr }

// Net returns the network substrate (adversary injection, partitions).
func (c *Cluster) Net() *simnet.Network { return c.net }

// CAS returns the configuration and attestation service.
func (c *Cluster) CAS() *attest.CAS { return c.cas }

// NewClient registers a credential and connects an authenticated client
// whose coordinator is node (clientID mod N).
func (c *Cluster) NewClient() (*Client, error) {
	c.clients++
	id := uint64(10000 + c.clients)
	cred := fmt.Sprintf("client-%d", id)
	secret := []byte(fmt.Sprintf("secret-%d", id))
	c.cas.RegisterClient(cred, secret)
	return Connect(ClientOptions{
		ID:           id,
		Addr:         fmt.Sprintf("client-%d", id),
		Net:          c.net,
		CAS:          c.cas,
		CredentialID: cred,
		Secret:       secret,
		Secure:       c.opts.Mode.Policy().Level == seal.LevelEncrypted,
	})
}

// Snapshot returns a point-in-time metrics snapshot for every live node,
// keyed by node address. Crashed nodes are absent; a restarted node
// reports its current incarnation's counters (per-boot, see Node.Metrics).
func (c *Cluster) Snapshot() map[string]obs.Snapshot {
	out := make(map[string]obs.Snapshot)
	for i, n := range c.nodes {
		if n != nil {
			out[c.nodeCfg[i].Addr] = n.Snapshot()
		}
	}
	return out
}

// SnapshotJSON renders the cluster snapshot as indented JSON.
func (c *Cluster) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(c.Snapshot(), "", "  ")
}

// CrashNode crash-stops node i (files survive; memory is lost).
func (c *Cluster) CrashNode(i int) {
	c.nodes[i].Crash()
	c.nodes[i] = nil
}

// RestartNode reboots a crashed node from its directory and runs
// cluster-level recovery.
func (c *Cluster) RestartNode(i int) (*Node, error) {
	cfg := c.nodeCfg[i]
	// A restart re-attests to the CAS via the node's LAS — no IAS round
	// trip (§VI) — and recovers from persistent state.
	n, err := StartNode(cfg)
	if err != nil {
		return nil, err
	}
	c.nodes[i] = n
	if err := n.Recover(); err != nil {
		return nil, err
	}
	return n, nil
}

// CheckLaws checks, on a quiet cluster, the conservation laws every live
// node's packages registered (obs.Registry.Law) and the fabric's
// (simnet.Stats.Law). A snapshot is not one atomic cut, so a violation is
// retried for 2 s before it is returned, prefixed by the node's address.
func (c *Cluster) CheckLaws() error {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		err := c.net.Stats().Law()
		for i, n := range c.nodes {
			if n != nil && err == nil {
				if err = n.reg.CheckLaws(); err != nil {
					err = fmt.Errorf("%s: %w", c.nodeCfg[i].Addr, err)
				}
			}
		}
		if err == nil || time.Now().After(deadline) {
			return err
		}
	}
}

// Stop shuts the whole cluster down, once every commit push has ended. It
// checks the conservation laws (CheckLaws) after that drain and before
// any node stops, and returns a violation along with any shutdown error.
func (c *Cluster) Stop() error {
	for _, n := range c.nodes {
		if n != nil {
			n.coord.Drain()
		}
	}
	errs := []error{c.CheckLaws()}
	for _, n := range c.nodes {
		if n != nil {
			errs = append(errs, n.Stop())
		}
	}
	c.nodes = nil
	for _, cr := range c.ctrs {
		errs = append(errs, cr.stop())
	}
	c.net.Close()
	if c.ownsDir {
		errs = append(errs, os.RemoveAll(c.baseDir))
	}
	return errors.Join(errs...)
}
