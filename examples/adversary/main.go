// Command adversary mounts the attacks from Treaty's threat model (§III)
// against a running cluster and shows each one being *detected*:
//
//  1. Network tampering: an interposer corrupts 2PC traffic; the sealed
//     message format rejects it and the transaction times out instead of
//     committing corrupted data.
//  2. Replay/duplication: captured operation messages are re-injected;
//     at-most-once metadata ((node, tx, op) tuples) prevents double
//     execution.
//  3. Storage tampering: a WAL byte is flipped on disk; recovery fails
//     the hash chain.
//  4. Rollback attack: the adversary restores an older (but internally
//     consistent) WAL and restarts the node; the trusted counter exposes
//     the missing suffix and recovery refuses to serve stale state.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"treaty"
	"treaty/internal/durlog"
	"treaty/internal/simnet"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	base, err := os.MkdirTemp("", "treaty-adversary-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	fmt.Println("Booting a full-security cluster (the adversary owns the network and disks)...")
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes:       3,
		Mode:        treaty.ModeSconeEncStab,
		BaseDir:     base,
		LockTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, cluster.Stop()) }()

	// Commit some baseline data.
	tx := cluster.Node(0).Begin(nil)
	for i := 0; i < 5; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("asset:%d", i)), []byte("genuine")); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Println("  baseline data committed")

	// --- Attack 1: corrupt all 2PC traffic. ---
	// The tampered key lives on another node, so the write crosses the
	// corrupted network; a key node 0 owns would be a local call.
	fmt.Println("\n[attack 1] corrupting network traffic between nodes...")
	tampered, err := remoteKey(cluster.Node(0), "asset:tampered")
	if err != nil {
		return err
	}
	cluster.Net().SetAdversary(simnet.NewCorrupter(1.0, 99))
	tx2 := cluster.Node(0).Begin(nil)
	err = tx2.Put(tampered, []byte("evil"))
	if err == nil {
		err = tx2.Commit()
	} else {
		tx2.Rollback()
	}
	cluster.Net().SetAdversary(nil)
	if err == nil {
		return errors.New("tampered transaction committed — DETECTION FAILED")
	}
	fmt.Printf("  detected: transaction failed cleanly (%v)\n", trim(err))

	// --- Attack 2: record and replay. ---
	fmt.Println("\n[attack 2] recording a transaction and replaying its packets...")
	rec := &simnet.Recorder{}
	cluster.Net().SetAdversary(rec)
	tx3 := cluster.Node(0).Begin(nil)
	if err := tx3.Put([]byte("counter:pay-once"), []byte("1-payment")); err != nil {
		return err
	}
	if err := tx3.Commit(); err != nil {
		return err
	}
	cluster.Net().SetAdversary(nil)
	before := cluster.Net().Stats().Delivered
	if err := rec.Replay(cluster.Net()); err != nil {
		return err
	}
	time.Sleep(100 * time.Millisecond)
	fmt.Printf("  replayed %d captured packets (delivered count %d -> %d)\n",
		len(rec.Captured()), before, cluster.Net().Stats().Delivered)
	check := cluster.Node(1).Begin(nil)
	v, _, err := check.Get([]byte("counter:pay-once"))
	check.Rollback()
	if err != nil {
		return err
	}
	fmt.Printf("  detected: replayed operations were deduplicated, value still %q\n", v)

	// --- Attack 3: tamper with the WAL on disk. ---
	fmt.Println("\n[attack 3] flipping a byte in node-1's WAL on disk...")
	cluster.CrashNode(1)
	walPath, err := newestWAL(filepath.Join(base, "node-1"))
	if err != nil {
		return err
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return errors.New("empty WAL")
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		return err
	}
	_, err = cluster.RestartNode(1)
	if err == nil {
		return errors.New("tampered WAL accepted — DETECTION FAILED")
	}
	fmt.Printf("  detected: recovery refused (%v)\n", trim(err))
	// Repair: restore the byte so the next attack can run.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		return err
	}
	if _, err := cluster.RestartNode(1); err != nil {
		return fmt.Errorf("restart after repair: %w", err)
	}
	fmt.Println("  (WAL restored; node recovered normally)")

	// --- Attack 4: rollback to a stale-but-consistent state. ---
	fmt.Println("\n[attack 4] snapshotting node-2's WAL, committing more data, then rolling the file back...")
	wal2, err := newestWAL(filepath.Join(base, "node-2"))
	if err != nil {
		return err
	}
	stale, err := os.ReadFile(wal2)
	if err != nil {
		return err
	}
	tx4 := cluster.Node(2).Begin(nil)
	for i := 0; i < 6; i++ {
		if err := tx4.Put([]byte(fmt.Sprintf("post-snapshot:%d", i)), []byte("newer")); err != nil {
			return err
		}
	}
	if err := tx4.Commit(); err != nil {
		return err
	}
	cluster.CrashNode(2)
	if err := os.WriteFile(wal2, stale, 0o644); err != nil {
		return err
	}
	_, err = cluster.RestartNode(2)
	if err == nil {
		return errors.New("rollback accepted — DETECTION FAILED")
	}
	if !errors.Is(err, durlog.ErrRollbackDetected) {
		fmt.Printf("  detected (as %v)\n", trim(err))
	} else {
		fmt.Printf("  detected: %v\n", trim(err))
	}

	fmt.Println("\nAll four attacks detected. The adversary can deny service, never corrupt it.")
	return nil
}

// remoteKey returns the first of prefix-0, prefix-1, ... that a node
// other than n owns.
func remoteKey(n *treaty.Node, prefix string) ([]byte, error) {
	view := n.Shard().View()
	for i := 0; i < 1000; i++ {
		if key := fmt.Appendf(nil, "%s-%d", prefix, i); view.OwnerID(key) != n.ID() {
			return key, nil
		}
	}
	return nil, fmt.Errorf("no key with prefix %q is remote to node %d", prefix, n.ID())
}

// newestWAL returns the highest-numbered WAL in dir.
func newestWAL(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("no WAL found in %s: %v", dir, err)
	}
	return matches[len(matches)-1], nil
}

// trim shortens long error chains for display.
func trim(err error) string {
	s := err.Error()
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}
