// Command crashrestart demonstrates crash-fail durability in the native
// encrypted mode: commit data, crash-stop every node in turn (no
// graceful shutdown — memory is dropped, only files survive), restart
// it, and show that every acknowledged commit is still readable. This
// mode runs no counter service, so recovery replays the sealed logs with
// no trusted value: every complete record is kept (replaying them against
// a counter that restarted at zero would discard the whole WAL as an
// unstabilized tail and silently lose the data).
package main

import (
	"fmt"
	"log"
	"os"

	"treaty"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "treaty-crashrestart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	fmt.Println("Booting a 3-node cluster in native encrypted mode...")
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes: 3, Mode: treaty.ModeNativeTreatyEnc, BaseDir: base,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()

	tx := cluster.Node(0).Begin(nil)
	for i := 0; i < 30; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("k:%02d", i)), []byte("v")); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Println("  committed 30 keys across the 3 shards")

	for n := 0; n < 3; n++ {
		cluster.CrashNode(n)
		if _, err := cluster.RestartNode(n); err != nil {
			return fmt.Errorf("restart node %d: %w", n, err)
		}
		fmt.Printf("  node %d crash-stopped and restarted (recovery ran)\n", n)
	}

	check := cluster.Node(1).Begin(nil)
	missing := 0
	for i := 0; i < 30; i++ {
		if _, ok, err := check.Get([]byte(fmt.Sprintf("k:%02d", i))); err != nil || !ok {
			missing++
			fmt.Printf("  LOST k:%02d (found=%v err=%v)\n", i, ok, err)
		}
	}
	_ = check.Rollback()
	if missing > 0 {
		return fmt.Errorf("durability violation: %d/30 committed keys lost", missing)
	}
	fmt.Println("\nAll 30 committed keys survived a crash-restart of every node.")
	return nil
}
