// Command treatystat boots a small in-process Treaty cluster, drives a
// short mixed workload through it, and dumps the cluster's full metrics
// snapshot as JSON — a smoke-viewer for the observability layer: every
// counter, gauge and 2PC stage-latency histogram a node exports.
//
// Usage:
//
//	treatystat [-nodes 3] [-txns 200] [-mode enc|stab] [-shardmap]
//
// -shardmap prints the attested routing state instead: the CAS map's
// epoch and trusted-counter binding, per-slot ownership, and the epoch
// each node's verified view is at.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"treaty/internal/core"
	"treaty/internal/shardmap"
)

// shardMapDump is the -shardmap output: the cluster's routing truth in
// one readable object.
type shardMapDump struct {
	Epoch   uint64            `json:"epoch"`
	Counter uint64            `json:"counter"`
	Members []shardmap.Member `json:"members"`
	// Slots maps each hash slot to its owning node id.
	Slots [shardmap.NumSlots]uint64 `json:"slots"`
	// SlotsByNode inverts Slots: node id -> owned slot numbers.
	SlotsByNode map[uint64][]int `json:"slots_by_node"`
	// NodeEpochs is each live node's verified view epoch; a node lagging
	// the CAS epoch has not refreshed yet.
	NodeEpochs map[string]uint64 `json:"node_epochs"`
}

func main() {
	log.SetFlags(0)
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("treatystat: %v", err)
	}
}

// run parses args, drives the workload and writes the chosen JSON
// rendering to w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("treatystat", flag.ContinueOnError)
	nodes := fs.Int("nodes", 3, "cluster size")
	txns := fs.Int("txns", 200, "transactions to run before snapshotting")
	mode := fs.String("mode", "enc", "security mode: enc (encrypted, immediate counters) or stab (counter-service stabilization)")
	shardMap := fs.Bool("shardmap", false, "print the attested shard map (epoch, per-slot ownership, per-node view epochs)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	secMode := core.ModeNativeTreatyEnc
	switch *mode {
	case "enc":
	case "stab":
		secMode = core.ModeSconeEncStab
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	cluster, err := core.NewCluster(core.ClusterOptions{Nodes: *nodes, Mode: secMode, Seed: 7})
	if err != nil {
		return fmt.Errorf("booting cluster: %w", err)
	}
	defer func() { err = errors.Join(err, cluster.Stop()) }()

	// A short mixed workload: writes spanning all shards, reads, and a
	// rollback every 10th transaction so abort metrics are populated too.
	for i := 0; i < *txns; i++ {
		tx := cluster.Node(i % *nodes).Begin(nil)
		key := fmt.Sprintf("stat/%04d", i)
		if err := tx.Put([]byte(key), []byte("v")); err != nil {
			_ = tx.Rollback()
			continue
		}
		if i > 0 {
			if _, _, err := tx.Get([]byte(fmt.Sprintf("stat/%04d", i-1))); err != nil {
				_ = tx.Rollback()
				continue
			}
		}
		if i%10 == 9 {
			_ = tx.Rollback()
			continue
		}
		if err := tx.Commit(); err != nil {
			log.Printf("treatystat: txn %d: %v", i, err)
		}
	}

	var out []byte
	if *shardMap {
		m := cluster.CAS().ShardMap()
		dump := shardMapDump{
			Epoch:       m.Epoch,
			Counter:     m.Counter,
			Members:     m.Members,
			Slots:       m.Slots,
			SlotsByNode: make(map[uint64][]int),
			NodeEpochs:  make(map[string]uint64),
		}
		for slot, owner := range m.Slots {
			dump.SlotsByNode[owner] = append(dump.SlotsByNode[owner], slot)
		}
		for i := 0; i < cluster.Nodes(); i++ {
			if n := cluster.Node(i); n != nil {
				dump.NodeEpochs[n.Addr()] = n.ShardEpoch()
			}
		}
		out, err = json.MarshalIndent(dump, "", "  ")
	} else {
		out, err = cluster.SnapshotJSON()
	}
	if err != nil {
		return fmt.Errorf("rendering snapshot: %w", err)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
