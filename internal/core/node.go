package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"treaty/internal/attest"
	"treaty/internal/counter"
	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/obs"
	"treaty/internal/repl"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/twopc"
	"treaty/internal/txn"
	"treaty/internal/vfs"
)

// enclaveIdentity is the code identity every genuine Treaty node enclave
// measures to; the CAS only provisions keys to this measurement.
const enclaveIdentity = "treaty-node-v1"

// NodeMeasurement returns the expected enclave measurement of a Treaty
// node (used when deploying the CAS).
func NodeMeasurement() enclave.Measurement {
	return enclave.MeasureCode(enclaveIdentity)
}

// NodeConfig configures one Treaty node.
type NodeConfig struct {
	// ID is the node's cluster id (index into the CAS node list).
	ID uint64
	// Addr is the node's RPC address on the network.
	Addr string
	// Dir is the node's storage directory.
	Dir string
	// Mode selects the security configuration.
	Mode SecurityMode
	// Net is the network substrate.
	Net *simnet.Network
	// Platform is the node's machine.
	Platform *enclave.Platform
	// LAS is the platform's local attestation service.
	LAS *attest.LAS
	// CAS provisions keys after attestation.
	CAS *attest.CAS
	// Workers sizes the userland scheduler (0 = 8, the paper's setup).
	Workers int
	// LockTimeout bounds lock waits (0 = 1s).
	LockTimeout time.Duration
	// TxnTimeout bounds 2PC round-trips and decision stabilization
	// (0 = coordinator default).
	TxnTimeout time.Duration
	// IdleTimeout reclaims participant transactions abandoned by dead
	// coordinators (0 = participant default).
	IdleTimeout time.Duration
	// MemTableSize overrides the flush threshold (0 = engine default).
	MemTableSize int64
	// FS is the filesystem the node's durable writers (LSM, Clog, mirror)
	// go through; nil uses the real OS. The chaos and crash-point
	// harnesses substitute fault-injecting filesystems.
	FS vfs.FS
	// Replicate enables per-shard primary-backup replication: the node
	// ships every fsynced WAL/Clog commit group to the backup the shard
	// map assigns its slots (before the groups' trusted counters
	// stabilize), and accepts mirror streams from peers backing up to
	// it. Failover goes through Promote, gated by a CAS promotion
	// certificate.
	Replicate bool
}

// Node is one running Treaty node (Figure 1): the trusted components —
// transaction layer, lock manager, transactional KV engine — inside the
// enclave; the untrusted network and storage stacks outside.
type Node struct {
	cfg     NodeConfig
	encl    *enclave.Enclave
	rt      *enclave.Runtime
	db      *lsm.DB
	mgr     *txn.Manager
	part    *twopc.Participant
	coord   *twopc.Coordinator
	clog    *twopc.Clog
	ep      *erpc.Endpoint
	poller  *erpc.Poller
	sched   *fibers.Scheduler
	ctrCli  *counter.Client
	ctrEP   *erpc.Endpoint
	ctrPoll *erpc.Poller
	// failCounters fails every trusted counter the node ever handed out
	// (each WAL, the MANIFEST, the Clog), present and future, with one
	// call to its backend: Crash cuts the acknowledgement gate with it.
	failCounters func(error)
	// shard holds the node's verified view of the attested shard map.
	shard    *shardmap.Holder
	shardKey seal.Key
	clients  *clientSessions
	reg      *obs.Registry

	// Replication (nil unless NodeConfig.Replicate): the mirror
	// receiver for peers backing up to this node, and this node's own
	// per-stream shippers.
	backup   *repl.Backup
	walShip  *repl.Shipper
	clogShip *repl.Shipper
}

// StartNode boots a node: launch the enclave, attest to the CAS, receive
// the cluster configuration, open (or recover) the storage engine, and
// start serving.
func StartNode(cfg NodeConfig) (*Node, error) {
	policy := cfg.Mode.Policy()
	if policy == (Policy{}) {
		return nil, fmt.Errorf("core: unknown security mode %v", cfg.Mode)
	}
	encl, err := cfg.Platform.Launch(enclaveIdentity, enclave.RuntimeConfig{Mode: policy.Enclave})
	if err != nil {
		return nil, fmt.Errorf("core: launching enclave: %w", err)
	}
	if cfg.FS == nil {
		cfg.FS = vfs.Default
	}
	n := &Node{cfg: cfg, encl: encl, rt: encl.Runtime(), reg: obs.NewRegistry()}
	n.rt.RegisterMetrics(n.reg)
	// A fault-injecting filesystem carries cumulative fault counters;
	// export them alongside this incarnation's detection counters so the
	// soak can assert injected faults are not silently absorbed.
	if mr, ok := cfg.FS.(interface{ RegisterMetrics(*obs.Registry) }); ok {
		mr.RegisterMetrics(n.reg)
	}

	// Trust establishment: attest, receive keys and cluster layout.
	inst, err := attest.NewInstance(encl, cfg.LAS)
	if err != nil {
		return nil, err
	}
	resp, err := cfg.CAS.Attest(inst.Request())
	if err != nil {
		return nil, fmt.Errorf("core: attestation: %w", err)
	}
	clusterCfg, err := inst.OpenResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("core: opening provisioned config: %w", err)
	}

	// Shard map: fetch the CAS-signed routing epoch and verify it against
	// the trusted counter before serving anything. A node that cannot
	// establish a verified view must not boot — it would route blind.
	n.shardKey = shardmap.KeyFor(clusterCfg.NetworkKey)
	n.shard = shardmap.NewHolder(nil)
	if err := n.ApplyShardMap(cfg.CAS.ShardMap()); err != nil {
		return nil, fmt.Errorf("core: boot shard map rejected: %w", err)
	}
	n.reg.GaugeFunc("shardmap.epoch", func() int64 {
		return int64(n.shard.View().Epoch)
	})

	// Userland scheduler.
	n.sched = fibers.New(cfg.Workers, n.rt)
	n.sched.Observe(n.reg)

	// RPC endpoint over the kernel-bypass transport.
	nep, err := cfg.Net.Listen(cfg.Addr)
	if err != nil {
		n.sched.Stop()
		return nil, err
	}
	n.ep, err = erpc.NewEndpoint(erpc.Config{
		NodeID:     cfg.ID,
		Transport:  erpc.NewSimTransport(nep, n.rt, erpc.KindDPDK),
		NetworkKey: clusterCfg.NetworkKey,
		Secure:     policy.Level == seal.LevelEncrypted,
		Metrics:    n.reg,
	})
	if err != nil {
		nep.Close()
		n.sched.Stop()
		return nil, err
	}

	// Trusted counter client or immediate counters, as the mode says.
	counters, err := n.buildCounters(clusterCfg)
	if err != nil {
		// The endpoint is already listening: a partial shutdown must
		// release the address or a retried boot finds it in use.
		n.shutdownPartial()
		return nil, err
	}

	// Replication: the backup receiver must exist before the engine
	// opens (peers may ship as soon as the endpoint polls), and the
	// shippers must exist before the engine opens so its commit hook is
	// wired from the first group.
	var walShipHook func([]durlog.Entry)
	var clogShipHook func([]durlog.Entry)
	if cfg.Replicate {
		n.backup, err = repl.NewBackup(repl.BackupConfig{
			Dir:     cfg.Dir,
			FS:      cfg.FS,
			Key:     clusterCfg.NetworkKey,
			Metrics: n.reg,
		})
		if err != nil {
			n.shutdownPartial()
			return nil, err
		}
		// Registered directly, NOT on a worker fiber: a mirror append
		// never touches this node's own commit path, so it stays
		// serviceable while every fiber is parked on a local commit
		// group that is itself waiting on a ship ack from a peer (the
		// mutual-replication cycle that would otherwise deadlock).
		n.ep.Register(twopc.ReqReplShip, n.backup.Handler())
		shipCfg := repl.ShipperConfig{
			Primary:  cfg.ID,
			Endpoint: n.ep,
			BackupOf: func() (uint64, bool) { return n.shard.View().BackupOf(cfg.ID) },
			AddrOf:   func(id uint64) (string, bool) { return n.shard.View().Addr(id) },
			Witness:  cfg.CAS,
			Key:      clusterCfg.NetworkKey,
			Metrics:  n.reg,
		}
		shipCfg.Stream = repl.StreamWAL
		n.walShip = repl.NewShipper(shipCfg)
		walShipHook = n.walShip.Ship
		shipCfg.Stream = repl.StreamClog
		n.clogShip = repl.NewShipper(shipCfg)
		clogShipHook = n.clogShip.Ship
	}

	// Storage engine (recovers from cfg.Dir if state exists).
	n.db, err = lsm.Open(lsm.Options{
		Dir:          cfg.Dir,
		FS:           cfg.FS,
		Level:        policy.Level,
		Key:          clusterCfg.StorageKey,
		Runtime:      n.rt,
		Counters:     counters,
		MemTableSize: cfg.MemTableSize,
		Metrics:      n.reg,
		Ship:         walShipHook,
	})
	if err != nil {
		n.shutdownPartial()
		return nil, err
	}

	// Transaction layer.
	n.mgr = txn.NewManager(txn.Config{
		DB:          n.db,
		LockTimeout: cfg.LockTimeout,
	})

	// 2PC participant + coordinator.
	n.part = twopc.NewParticipant(twopc.ParticipantConfig{
		Manager:     n.mgr,
		Endpoint:    n.ep,
		Scheduler:   n.sched,
		IdleTimeout: cfg.IdleTimeout,
		NodeID:      cfg.ID,
		Shard:       n.shard,
		Refresh:     n.RefreshShardMap,
		Metrics:     n.reg,
	})
	clogCtr := counters("CLOG-000001")
	clog, recovered, err := twopc.OpenClog(cfg.FS, cfg.Dir, policy.Level, clusterCfg.StorageKey, n.rt, clogCtr, durlog.TrustedValue(policy.Level, clogCtr))
	if err != nil {
		n.shutdownPartial()
		return nil, err
	}
	clog.Configure(twopc.ClogTuning{
		Metrics: n.reg,
		Ship:    clogShipHook,
	})
	if clog.TornTailDropped() {
		n.reg.Counter("storage.clog.torn_dropped").Inc()
	}
	// The round law spans the three packages wired here: a commit group
	// written without a waiter (a WAL outcome record) fires no
	// trusted-counter round of its own.
	n.reg.Law("core.round", func(s obs.Snapshot) error {
		rounds := s.Counter("counter.rounds") - s.Counter("counter.round.failures")
		demanding := s.Counter("lsm.stabilize.demanded") + s.Histograms["twopc.clog.group_size"].Count
		if rounds > demanding {
			return fmt.Errorf("%d counter rounds > %d demanding groups", rounds, demanding)
		}
		return nil
	})
	n.clog = clog
	n.coord = twopc.NewCoordinator(twopc.CoordinatorConfig{
		NodeID:      cfg.ID,
		Endpoint:    n.ep,
		Participant: n.part,
		Clog:        clog,
		Shard:       n.shard,
		Refresh:     n.RefreshShardMap,
		Recovered:   recovered,
		Timeout:     cfg.TxnTimeout,
		Metrics:     n.reg,
	})

	// Re-initialize prepared transactions found during recovery; they
	// resolve with their coordinators once the cluster is up (Recover).
	if err := n.part.RestorePrepared(n.db.RecoveredPrepared()); err != nil {
		n.shutdownPartial()
		return nil, err
	}

	n.clients = newClientSessions(n)
	n.poller = erpc.StartPoller(n.ep)
	return n, nil
}

// buildCounters wires the trusted counter factory for the node's mode,
// and failCounters to the one call that fails all of its counters.
func (n *Node) buildCounters(clusterCfg *attest.ClusterConfig) (lsm.CounterFactory, error) {
	if n.cfg.Mode.Policy().Counter == CounterNone {
		family := new(durlog.ImmediateCounters)
		n.failCounters = family.Fail
		return family.Counter, nil
	}
	if len(clusterCfg.CounterReplicas) == 0 {
		return nil, fmt.Errorf("core: mode %q stabilizes on the counter service and the provisioned cluster lists no counter replicas", n.cfg.Mode)
	}
	// Dedicated endpoint for counter traffic so protocol rounds are not
	// queued behind transaction handling. Round numbers restart with the
	// node; the endpoint's per-boot operation ids (erpc.NextOpID) are what
	// keep a restarted node's (node, tx, op) tuples from colliding with
	// its pre-crash ones in the replicas' replay caches.
	cep, err := n.cfg.Net.Listen(n.cfg.Addr + "/ctr")
	if err != nil {
		return nil, err
	}
	n.ctrEP, err = erpc.NewEndpoint(erpc.Config{
		NodeID:     n.cfg.ID,
		Transport:  erpc.NewSimTransport(cep, n.rt, erpc.KindDPDK),
		NetworkKey: clusterCfg.NetworkKey,
		Secure:     true,
		Metrics:    n.reg,
		// The node endpoint already owns the "erpc." names in this
		// registry; the counter-service endpoint gets its own prefix.
		MetricsPrefix: "erpc.ctr",
	})
	if err != nil {
		return nil, err
	}
	n.ctrPoll = erpc.StartPoller(n.ctrEP)
	n.ctrCli, err = counter.NewClient(counter.ClientConfig{
		Endpoint: n.ctrEP,
		Replicas: clusterCfg.CounterReplicas,
		Metrics:  n.reg,
	})
	if err != nil {
		return nil, err
	}
	cli := n.ctrCli
	n.failCounters = cli.Fail
	nodeID := n.cfg.ID
	return func(name string) durlog.TrustedCounter {
		// Counter names are namespaced per node: every node has its own
		// wal-000001.log, and their counters must be independent.
		full := fmt.Sprintf("node%d/%s", nodeID, name)
		h := cli.Counter(full)
		// Seed the local view from the protection group so recovery
		// freshness checks see the quorum-stable value. A log file that is
		// already there holds acknowledged entries only that value protects:
		// replayed against an unseeded 0 they would all be truncated as an
		// unstabilized tail. So without a quorum its counter fails instead,
		// durlog refuses to replay against a failed counter, and the boot
		// fails with no file touched — a fault of the counter group "can only
		// affect availability" (§VI). A log the node is about to create has
		// nothing to lose, and a transient no-quorum at a rotation must not
		// poison a running node: there the query stays best effort.
		v, err := cli.RecoverStable(full)
		if _, statErr := n.cfg.FS.Stat(filepath.Join(n.cfg.Dir, name)); statErr == nil {
			retry := n.ctrEP.Retry(recoverQueryAttempts, erpc.RetryBase, erpc.RetryCap, nil)
			for err != nil && retry.Next() {
				v, err = cli.RecoverStable(full)
			}
			if err != nil {
				h.Fail(fmt.Errorf("core: recovering trusted counter %s: %w", full, err))
			}
		}
		if err == nil {
			h.SeedStable(v)
		}
		return h
	}, nil
}

// recoverQueryAttempts bounds the boot-time queries for the counter of an
// existing log file: each already waits out the client's round timeout.
const recoverQueryAttempts = 3

// shutdownPartial tears down whatever StartNode built before failing,
// releasing every network address so a later retry can bind again.
func (n *Node) shutdownPartial() {
	if n.db != nil {
		_ = n.db.Close() // before the counter client: Close waits on it
	}
	if n.ctrPoll != nil {
		n.ctrPoll.Stop()
	}
	if n.ctrCli != nil {
		n.ctrCli.Close()
	}
	if n.ctrEP != nil {
		_ = n.ctrEP.Close()
	}
	if n.sched != nil {
		n.sched.Stop()
	}
	if n.ep != nil {
		_ = n.ep.Close()
	}
	if n.backup != nil {
		_ = n.backup.Close()
	}
}

// RefreshShardMap refetches the CAS-signed shard map and installs it if
// it verifies and advances the node's view. Called after wrong-epoch
// rejections (both directions) and after a migration flips the epoch.
func (n *Node) RefreshShardMap() {
	m := n.cfg.CAS.ShardMap()
	if m == nil {
		return
	}
	if err := n.ApplyShardMap(m); err != nil {
		n.reg.Counter("shardmap.refresh_rejected").Inc()
	}
}

// ApplyShardMap verifies a presented shard map against the trusted
// counter and the node's own rollback floor (shardmap.Holder.Apply) and
// installs it if it advances the view. A replayed older map (even one
// carrying a genuine CAS signature) fires shardmap.stale_epoch_rejected.
func (n *Node) ApplyShardMap(m *shardmap.Map) error {
	err := n.shard.Apply(m, n.shardKey, n.cfg.CAS.ShardMapStable())
	if errors.Is(err, shardmap.ErrStaleEpoch) {
		n.reg.Counter("shardmap.stale_epoch_rejected").Inc()
	}
	return err
}

// Shard exposes the node's shard-map holder (routing view).
func (n *Node) Shard() *shardmap.Holder { return n.shard }

// ShardEpoch reports the node's current shard-map epoch.
func (n *Node) ShardEpoch() uint64 { return n.shard.View().Epoch }

// AddrOfNode resolves a member id to its RPC address through the shard
// map's membership table ("" for a non-member). Resolution is by member
// ID, never by position in the boot-time node list: after cluster growth
// a node's provisioned list may be shorter than the membership, and
// positional indexing would misresolve (or drop) coordinators.
func (n *Node) AddrOfNode(id uint64) string {
	a, _ := n.shard.View().Addr(id)
	return a
}

// Backup exposes the node's mirror receiver (nil unless replicating).
func (n *Node) Backup() *repl.Backup { return n.backup }

// Begin starts a distributed transaction coordinated by this node on fiber f (nil: a goroutine).
func (n *Node) Begin(f *fibers.Fiber) *twopc.DistTxn { return n.coord.Begin(f) }

// Recover finishes crash recovery once the whole cluster is reachable
// (§VI): every peer is told to resolve its prepared parts of this node's
// transactions by asking it (one ReqResolve notice each), and this node's
// participant resolves its own recovered prepared transactions with their
// coordinators. The coordinator itself only answers.
func (n *Node) Recover() error {
	n.coord.Resolve(n.cfg.ID)
	return n.part.ResolveRecovered()
}

// Stop shuts the node down cleanly, once its commit pushes have ended.
func (n *Node) Stop() error {
	n.coord.Drain()
	n.stopShippers()
	n.poller.Stop()
	n.part.Close()
	n.sched.Stop()
	// The logs close while the counter service is still reachable: a
	// clean close stabilizes each log's deferred tail and waits for it.
	var errs []error
	errs = append(errs, n.clog.Close(), n.db.Close())
	if n.ctrPoll != nil {
		n.ctrPoll.Stop()
	}
	if n.ctrCli != nil {
		n.ctrCli.Close()
	}
	errs = append(errs, n.ep.Close())
	if n.ctrEP != nil {
		errs = append(errs, n.ctrEP.Close())
	}
	if n.backup != nil {
		errs = append(errs, n.backup.Close())
	}
	return errors.Join(errs...)
}

// stopShippers makes later Ship hooks silent no-ops (no witness, no
// degrade). Teardown-time commit groups then stabilize unshipped, which
// is sound because their acknowledgements can no longer be delivered
// (the scheduler and poller are dying with them): replication promises
// that *acknowledged* commits survive failover — a client ack is
// delivered only after Ship returned with the backup's ack — and work
// that dies unacknowledged inside the node may be lost, exactly like
// work cut off by the power-loss model. Without this, a crash-time
// in-flight ship would fail against the closing endpoint and durably
// degrade the stream, vetoing the very promotion the crash calls for.
func (n *Node) stopShippers() {
	if n.walShip != nil {
		n.walShip.Stop()
	}
	if n.clogShip != nil {
		n.clogShip.Stop()
	}
}

// errCrashStopped fails stabilization waits caught mid-flight by Crash.
var errCrashStopped = errors.New("core: node crash-stopped")

// Crash kills the node without any graceful shutdown: in-memory state is
// lost, only synced files survive (the crash-fail model, §III).
//
// Ordering matters for a faithful crash: stop ingesting requests first
// (poller), silence the participant's janitor without rolling anything
// back (Abandon — rollback would be graceful shutdown, not a crash),
// then stop the scheduler so mid-wait fibers freeze permanently instead
// of mutating files a restarted instance now owns, and finally release
// the network addresses.
func (n *Node) Crash() {
	// Poison stabilization BEFORE stopping the shippers. Every
	// acknowledgement this node can externalize — a participant's
	// prepare vote, a coordinator's commit return — is gated on a
	// stable-token wait that runs AFTER the group's Ship hook. Poisoning
	// first therefore closes the staged-teardown window: any Ship that
	// observes the stop flag (and silently skips the mirror) is followed
	// by a token wait that observes the poison and fails, so a commit
	// group absent from the mirror can never reach a client or a
	// coordinator as acknowledged. Without this ordering, an in-flight
	// transaction could skip the ship, stabilize, and ack during the
	// milliseconds the rest of the teardown takes — a client-visible
	// commit the promoted backup has never heard of.
	// But first, crash-stop the Clog. Coordinator appends run on client
	// goroutines that nothing below can freeze. Abandon makes them fail
	// without touching the file and barriers on the in-flight group, so
	// once Crash returns no write can ever reach a file the restarted
	// instance owns (the observed failure was a spliced Clog hash chain
	// mid-file after a crash-restart round). The poison then wakes every
	// coordinator waiting on a commit decision's round: it answers
	// indeterminate and sends nothing, since only the Clog's stable
	// prefix, replayed at restart, decides that transaction.
	n.clog.Abandon()
	// One call fails every counter the node handed out, whatever the
	// backend: the service client's handles, or the immediate family,
	// whose members stabilize instantly and would otherwise let every
	// wait succeed.
	n.failCounters(errCrashStopped)
	n.stopShippers()
	n.poller.Stop()
	n.part.Abandon()
	n.sched.Stop()
	if n.ctrPoll != nil {
		n.ctrPoll.Stop()
	}
	if n.ctrCli != nil {
		n.ctrCli.Close()
	}
	_ = n.ep.Close()
	if n.ctrEP != nil {
		_ = n.ctrEP.Close()
	}
	// The DB and in-flight transactions are abandoned, not closed. The WAL
	// goes last, when no group can wait on a counter or a ship: a client
	// goroutine or a commit push may still run a local leg into it.
	n.db.Abandon()
}

// DB exposes the storage engine (benchmarks, tests).
func (n *Node) DB() *lsm.DB { return n.db }

// Manager exposes the transaction manager (single-node benchmarks).
func (n *Node) Manager() *txn.Manager { return n.mgr }

// Runtime exposes the TEE runtime (stats).
func (n *Node) Runtime() *enclave.Runtime { return n.rt }

// Addr returns the node's RPC address.
func (n *Node) Addr() string { return n.cfg.Addr }

// ID returns the node's cluster id.
func (n *Node) ID() uint64 { return n.cfg.ID }

// Endpoint exposes the RPC endpoint (tests).
func (n *Node) Endpoint() *erpc.Endpoint { return n.ep }

// Participant exposes the 2PC participant (leak checks, tests).
func (n *Node) Participant() *twopc.Participant { return n.part }

// Coordinator exposes the 2PC coordinator (leak checks, tests).
func (n *Node) Coordinator() *twopc.Coordinator { return n.coord }

// Metrics exposes the node's metrics registry. Every subsystem of this
// boot registers into it; a restarted node starts a fresh registry, so
// counters are per-incarnation.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Snapshot returns a point-in-time view of every metric on the node.
func (n *Node) Snapshot() obs.Snapshot { return n.reg.Snapshot() }
