package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"treaty/internal/attest"
	"treaty/internal/core"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
	"treaty/internal/vfs"
	"treaty/internal/workload"
)

// Fault is one scripted adversity, as a value: Inject starts it before
// the round's traffic, Lift ends it afterwards — repairing what it broke
// and checking what it must have caused.
type Fault struct {
	Name   string
	Inject func(h *Harness)
	Lift   func(h *Harness) error
}

// Script repeats cycle(0), cycle(1), ... and cuts the result at rounds
// faults; a cycle may use i to rotate its targets across nodes.
func Script(rounds int, cycle func(i int) []Fault) []Fault {
	script := make([]Fault, 0, rounds)
	for i := 0; len(script) < rounds; i++ {
		c := cycle(i)
		script = append(script, c[:min(len(c), rounds-len(script))]...)
	}
	return script
}

// midRound runs fn a quarter into the round's traffic; the channel
// carries its result to the fault's lift.
func midRound(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() {
		time.Sleep(roundDuration / 4)
		done <- fn()
	}()
	return done
}

// netFault puts the adversary mk builds on the network for the round and
// takes it off at lift. mk gets a seed drawn from the harness's, so a run
// replays from its seed.
func netFault(name string, mk func(seed int64) simnet.Adversary) Fault {
	return Fault{
		Name:   name,
		Inject: func(h *Harness) { h.cluster.Net().SetAdversary(mk(h.rng.Int63())) },
		Lift: func(h *Harness) error {
			h.cluster.Net().SetAdversary(nil)
			return nil
		},
	}
}

// lossy drops the share rate of all packets and delivers the rest after
// delay, plus dup duplicates each.
func lossy(name string, rate float64, delay time.Duration, dup int) Fault {
	return netFault(name, func(seed int64) simnet.Adversary {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		return simnet.FuncAdversary(func(simnet.Packet) simnet.Verdict {
			mu.Lock()
			defer mu.Unlock()
			return simnet.Verdict{Drop: rng.Float64() < rate, Delay: delay, Duplicates: dup}
		})
	})
}

func loss(rate float64) Fault { return lossy(fmt.Sprintf("loss-%d%%", int(rate*100)), rate, 0, 0) }

// delayDup adds latency, duplicates packets (pressure on the sealed
// channel's replay cache) and drops a few.
func delayDup() Fault { return lossy("delay+dup", 0.05, 2*time.Millisecond, 1) }

// corrupt flips a byte in a fifth of all packets: every corrupted sealed
// message must fail authentication, never decode into another request.
func corrupt() Fault {
	return netFault("adv-corrupt", func(seed int64) simnet.Adversary { return simnet.NewCorrupter(0.20, seed) })
}

// replay records the round's traffic and, once it stops, re-injects the
// whole capture impersonating the original senders. Replayed requests
// must hit the replay cache (or run as garbage transactions the janitor
// reclaims); replayed responses must land as stale.
func replay() Fault {
	rec := &simnet.Recorder{Limit: 4096}
	return Fault{
		Name:   "adv-replay",
		Inject: func(h *Harness) { h.cluster.Net().SetAdversary(rec) },
		Lift: func(h *Harness) error {
			h.cluster.Net().SetAdversary(nil)
			if err := rec.Replay(h.cluster.Net()); err != nil {
				return fmt.Errorf("replaying %d captured packets: %w", len(rec.Captured()), err)
			}
			h.cfg.Logf("chaos: replayed %d captured packets", len(rec.Captured()))
			return nil
		},
	}
}

// partition isolates a node for the round; transactions that need it
// abort.
func partition(node int) Fault {
	return Fault{
		Name:   fmt.Sprintf("partition-node-%d", node),
		Inject: func(h *Harness) { h.isolate(node, true) },
		Lift: func(h *Harness) error {
			h.isolate(node, false)
			return nil
		},
	}
}

// crashRestart kills a node for the round and restarts it, with
// recovery, at lift. role is a label only: every node both coordinates
// and participates.
func crashRestart(role string, node int) Fault {
	return Fault{
		Name:   fmt.Sprintf("crash-%s-node-%d", role, node),
		Inject: func(h *Harness) { h.kill(node) },
		Lift:   func(h *Harness) error { return h.restartNode(node) },
	}
}

// dupCrash is a coordinator crash-restart under duplicate delivery. The
// coordinator first commits a transfer through two phases with its
// commit push held, so it crashes with the writers holding that transfer
// prepared and only the restarted coordinator's notices resolve it. The
// restart runs before the duplication lifts, so every recovery message —
// resolve notices, status queries and their answers — arrives at least
// twice, and the (node, tx, op) dedup plus idempotent handlers must make
// that invisible.
func dupCrash(node int) Fault {
	dup := lossy("", 0.05, time.Millisecond, 2)
	return Fault{
		Name: fmt.Sprintf("dup-crash-coordinator-node-%d", node),
		Inject: func(h *Harness) {
			dup.Inject(h)
			coord := h.cluster.Node(node)
			release := coord.Coordinator().HoldPushes()
			bank := workload.NewBank(workload.BankConfig{Accounts: h.cfg.Accounts}, h.cfg.Seed+int64(node)+7919)
			for try := 0; try < 20 && coord.Snapshot().Gauge("twopc.coord.pushing") == 0; try++ {
				if err := h.transfer(0, bank.Next(), node); err != nil {
					h.aborted[0]++
				} else {
					h.committed[0]++
				}
			}
			h.kill(node)
			release() // the crashed incarnation's push reaches nobody
		},
		Lift: func(h *Harness) error {
			err := h.restartNode(node)
			_ = dup.Lift(h)
			return err
		},
	}
}

// counterRestart restarts trusted-counter replica i while commits demand
// counter rounds: the protection group keeps its quorum, and the
// restarted replica answers from what its snapshot and journal carried
// through.
func counterRestart(i int) Fault {
	var done <-chan error
	return Fault{
		Name:   fmt.Sprintf("restart-counter-replica-%d", i),
		Inject: func(h *Harness) { done = midRound(func() error { return h.cluster.RestartCounterReplica(i) }) },
		Lift:   func(h *Harness) error { return <-done },
	}
}

// slowDisk adds latency to every filesystem operation of a node: commits
// slow down, nothing may break.
func slowDisk(node int) Fault {
	return Fault{
		Name:   fmt.Sprintf("slow-disk-node-%d", node),
		Inject: func(h *Harness) { h.fs[node].SetOpDelay(time.Millisecond) },
		Lift: func(h *Harness) error {
			h.fs[node].SetOpDelay(0)
			return nil
		},
	}
}

// diskFail breaks a node's disk for the round. Storage must fail-stop —
// no acknowledged commit lost — and after the disk is repaired a reboot
// that re-runs recovery must succeed.
func diskFail(name string, node int, inject func(*vfs.FaultFS)) Fault {
	return Fault{
		Name:   fmt.Sprintf("%s-node-%d", name, node),
		Inject: func(h *Harness) { inject(h.fs[node]) },
		Lift: func(h *Harness) error {
			h.fs[node].Reset()
			return h.reboot(node)
		},
	}
}

// enospc exhausts a node's write budget mid-round (ENOSPC with a torn
// final write).
func enospc(node int) Fault {
	return diskFail("enospc", node, func(fs *vfs.FaultFS) { fs.SetWriteBudget(4096) })
}

// syncFail fails a node's next fsyncs with fsyncgate semantics (the
// unsynced tail is dropped): the WAL and Clog must poison themselves.
func syncFail(node int) Fault {
	return diskFail("sync-fail", node, func(fs *vfs.FaultFS) { fs.FailNextSyncs(3) })
}

// bitRot flips bits in 30% of a node's block reads. A rotted read that
// reaches the engine must be detected (checksum, hash chain or AEAD
// failure, then quarantine), never served as data; the reboot at lift
// clears the quarantine.
func bitRot(node int) Fault {
	var before uint64
	return Fault{
		Name: fmt.Sprintf("bit-rot-node-%d", node),
		Inject: func(h *Harness) {
			before = h.fs[node].ReadsRotted()
			h.fs[node].SetReadRot(0.3, false)
		},
		Lift: func(h *Harness) error {
			h.fs[node].Reset()
			h.nodesMu.RLock()
			n := h.cluster.Node(node)
			h.nodesMu.RUnlock()
			if rotted := h.fs[node].ReadsRotted() - before; rotted > 0 && n != nil {
				// Still this incarnation: its counters must show the engine
				// noticed, and — with the block cache on — that every
				// quarantined table purged its cached blocks, or a warm cache
				// would mask the corruption.
				s := n.Snapshot()
				if s.Counter("lsm.corruption.detected") == 0 {
					return fmt.Errorf("node %d served %d bit-rotted reads with zero detected corruptions", node, rotted)
				}
				if q, p := s.Counter("lsm.quarantine.tables"), s.Counter("lsm.cache.quarantine_purges"); s.Gauge("lsm.cache.capacity_bytes") > 0 && p < q {
					return fmt.Errorf("node %d quarantined %d tables but purged cached blocks for only %d", node, q, p)
				}
			}
			return h.reboot(node)
		},
	}
}

// rotBoot kills a node for the round and, at lift, boots it from storage
// whose every read is rotted, logs and counter files included: the boot
// must refuse — serving garbage or trusting a rolled-back counter would
// break every durability guarantee — and a clean restart must then
// succeed.
func rotBoot(node int) Fault {
	return Fault{
		Name:   fmt.Sprintf("rot-detected-at-boot-node-%d", node),
		Inject: func(h *Harness) { h.kill(node) },
		Lift: func(h *Harness) error {
			h.fs[node].SetReadRot(1, true)
			h.nodesMu.Lock()
			_, err := h.cluster.RestartNode(node)
			h.nodesMu.Unlock()
			h.fs[node].Reset()
			if err == nil {
				return fmt.Errorf("node %d booted from fully bit-rotted storage undetected", node)
			}
			h.cfg.Logf("chaos: node %d refused rotted boot: %v", node, err)
			return h.restartNode(node)
		},
	}
}

// failover kills a primary a quarter into the round, for good, and
// promotes its recorded backup through the CAS certificate path while the
// workers keep running: the successor adopts the dead node's slots,
// address and undecided transactions. Before the genuine takeover a
// rolled-back promotion request must be refused. A soak fires one
// failover: after it, the members the dead node was backing up have no
// backup left to promote.
func failover(node int) Fault {
	var done <-chan error
	return Fault{
		Name: fmt.Sprintf("failover-promote-backup-of-node-%d", node),
		Inject: func(h *Harness) {
			// Commit a few transfers on the healed cluster first: the takeover
			// must carry history from before the kill, and the surrounding
			// lossy rounds regularly commit nothing. They count as worker 0's
			// commits, so losing one trips the durability invariant.
			bank := workload.NewBank(workload.BankConfig{Accounts: h.cfg.Accounts}, h.cfg.Seed+104729)
			for try := 0; try < 20 && h.seen.preKillCommits < 2; try++ {
				if err := h.transfer(0, bank.Next(), bank.Intn(clusterSize)); err != nil {
					h.aborted[0]++
					continue
				}
				h.committed[0]++
				h.seen.preKillCommits++
			}
			done = midRound(func() error {
				h.crashNode(node)
				return h.promote(node)
			})
		},
		Lift: func(h *Harness) error {
			if err := <-done; err != nil {
				return err
			}
			if err := h.failedOverTo(node, h.seen.successor); err != nil {
				return err
			}
			h.seen.promotions++
			return nil
		},
	}
}

// promote takes over for dead node while workers hammer the cluster: a
// rolled-back request first (it must be refused), then the genuine
// certificate.
func (h *Harness) promote(dead int) error {
	backupID, ok := h.cluster.CAS().ShardMap().BackupOf(uint64(dead))
	if !ok {
		return fmt.Errorf("dead node %d has no recorded backup", dead)
	}
	h.nodesMu.RLock()
	backup := h.cluster.Node(int(backupID))
	h.nodesMu.RUnlock()
	if backup == nil {
		return fmt.Errorf("recorded backup %d is not live", backupID)
	}

	// Claim the mirror holds nothing. The CAS witnessed real groups before
	// the primary's counters stabilized, so this is a rollback.
	rolled := backup.BuildPromotionRequest(uint64(dead))
	if len(rolled.Streams) == 0 {
		return fmt.Errorf("no witnessed streams for node %d — the failover round is vacuous", dead)
	}
	for i := range rolled.Streams {
		rolled.Streams[i].Seq = 0
		rolled.Streams[i].HaveBoundary = false
	}
	if _, err := backup.SubmitPromotion(rolled); !errors.Is(err, attest.ErrReplicaRolledBack) {
		return fmt.Errorf("rolled-back promotion request was not refused: %v", err)
	}
	h.seen.rollbackRejects++

	successor, err := h.cluster.Promote(dead)
	if err != nil {
		return fmt.Errorf("promoting backup of node %d: %w", dead, err)
	}
	h.seen.successor = successor.ID()
	h.nodesMu.Lock()
	h.failedOver[dead] = true
	h.nodesMu.Unlock()
	return nil
}

// failedOverTo checks convergence after a takeover: the dead node owns no
// slot, and every live node resolves its id to the successor's address.
func (h *Harness) failedOverTo(dead int, successor uint64) error {
	m := h.cluster.CAS().ShardMap()
	for s := 0; s < shardmap.NumSlots; s++ {
		if m.Slots[s] == uint64(dead) {
			return fmt.Errorf("slot %d still owned by failed-over node %d", s, dead)
		}
	}
	h.nodesMu.RLock()
	defer h.nodesMu.RUnlock()
	succ := h.cluster.Node(int(successor))
	if succ == nil {
		return fmt.Errorf("successor %d not live after failover", successor)
	}
	for _, n := range h.cluster.LiveNodes() {
		if got := n.AddrOfNode(uint64(dead)); got != succ.Addr() {
			return fmt.Errorf("node %d resolves dead node %d to %q, want successor %q", n.ID(), dead, got, succ.Addr())
		}
	}
	return nil
}

// hotSlot returns a slot holding at least minKeys seeded bank keys whose
// current owner is not dst (-1 if none qualifies): a migration of it is
// guaranteed to sit in the workload's way.
func (h *Harness) hotSlot(cur *shardmap.Map, dst int, minKeys int) int {
	perSlot := make(map[int]int)
	for i := 0; i < h.cfg.Accounts; i++ {
		perSlot[shardmap.SlotOf(accountKey(i))]++
	}
	for w := 0; w < h.cfg.Workers; w++ {
		perSlot[shardmap.SlotOf(workerKey(w))]++
	}
	best, bestKeys := -1, 0
	for slot, keys := range perSlot {
		if keys >= minKeys && int(cur.SlotOwner(slot)) != dst && keys > bestKeys {
			best, bestKeys = slot, keys
		}
	}
	return best
}

// fenceRejections sums the shard-routing rejection counters on node i's
// current incarnation (0 if the node is down).
func (h *Harness) fenceRejections(i int) uint64 {
	h.nodesMu.RLock()
	n := h.cluster.Node(i)
	h.nodesMu.RUnlock()
	if n == nil {
		return 0
	}
	s := n.Snapshot()
	return s.Counter("shardmap.fence_rejected") + s.Counter("shardmap.stale_epoch_rejected")
}

// mapIs checks that the CAS map gives slot to owner at epoch and, with
// everywhere set, that every live node's view agrees.
func (h *Harness) mapIs(slot, owner int, epoch uint64, everywhere bool) error {
	views := map[string]*shardmap.Map{"CAS": h.cluster.CAS().ShardMap()}
	if everywhere {
		h.nodesMu.RLock()
		for _, n := range h.cluster.LiveNodes() {
			views[n.Addr()] = n.Shard().View()
		}
		h.nodesMu.RUnlock()
	}
	for who, m := range views {
		if m.Epoch != epoch || int(m.SlotOwner(slot)) != owner {
			return fmt.Errorf("%s map: epoch=%d slot %d owner=%d, want epoch=%d owner=%d",
				who, m.Epoch, slot, m.SlotOwner(slot), epoch, owner)
		}
	}
	return nil
}

// migrateLive migrates a hot slot to dst a quarter into the round and
// holds each chunk's fence until a live transaction has collided with it
// at the source (or the round's traffic ends); the whole cluster must
// converge on the flipped map.
func migrateLive(dst int) Fault {
	var slot, src int
	var epoch, base uint64
	var done <-chan error
	return Fault{
		Name: fmt.Sprintf("migrate-slot-to-node-%d", dst),
		Inject: func(h *Harness) {
			cur := h.cluster.CAS().ShardMap()
			if slot = h.hotSlot(cur, dst, 1); slot < 0 {
				return
			}
			src, epoch, base = int(cur.SlotOwner(slot)), cur.Epoch+1, h.fenceRejections(int(cur.SlotOwner(slot)))
			end := time.Now().Add(roundDuration)
			done = midRound(func() error {
				return h.cluster.MigrateSlot(slot, dst, core.MigrateOptions{
					ChunkSize: 1,
					OnChunk: func(int) {
						for h.fenceRejections(src) == base && time.Now().Before(end) {
							time.Sleep(time.Millisecond)
						}
					},
				})
			})
		},
		Lift: func(h *Harness) error {
			if slot < 0 {
				return fmt.Errorf("no migratable slot away from node %d", dst)
			}
			if err := <-done; err != nil {
				return err
			}
			h.seen.fenceRejections += h.fenceRejections(src) - base
			h.seen.migrations++
			return h.mapIs(slot, dst, epoch, true)
		},
	}
}

// killMigrationSource starts a migration to dst and crashes the source
// from the chunk callback, mid-stream. The epoch must not flip and the
// slot keeps its old owner; after the source restarts, a retry — whose
// first chunk purges the partial copy the killed attempt left — must
// complete.
func killMigrationSource(dst int) Fault {
	var slot, src int
	var epoch uint64
	var done <-chan error
	return Fault{
		Name: fmt.Sprintf("kill-migration-source-to-node-%d", dst),
		Inject: func(h *Harness) {
			// Prefer a slot with ≥2 keys so the kill lands between chunks;
			// fall back to killing before the first chunk.
			cur := h.cluster.CAS().ShardMap()
			killAt := 1
			if slot = h.hotSlot(cur, dst, 2); slot < 0 {
				killAt, slot = 0, h.hotSlot(cur, dst, 1)
			}
			if slot < 0 {
				return
			}
			src, epoch = int(cur.SlotOwner(slot)), cur.Epoch
			done = midRound(func() error {
				return h.cluster.MigrateSlot(slot, dst, core.MigrateOptions{
					ChunkSize: 1,
					OnChunk: func(chunk int) {
						if chunk == killAt {
							h.crashNode(src)
						}
					},
				})
			})
		},
		Lift: func(h *Harness) error {
			if slot < 0 {
				return nil
			}
			if <-done == nil {
				return fmt.Errorf("migration of slot %d survived its source being killed mid-stream", slot)
			}
			if err := h.mapIs(slot, src, epoch, false); err != nil {
				return fmt.Errorf("killed migration moved the map: %w", err)
			}
			if err := h.restartNode(src); err != nil {
				return err
			}
			h.seen.kills++
			if err := h.cluster.MigrateSlot(slot, dst, core.MigrateOptions{ChunkSize: 1}); err != nil {
				return fmt.Errorf("retrying migration after source restart: %w", err)
			}
			return h.mapIs(slot, dst, epoch+1, true)
		},
	}
}
