// Command tpcc runs a miniature TPC-C mix against a secure 3-node Treaty
// cluster — the workload the paper's distributed evaluation uses. New
// orders and payments touch remote warehouses with the spec's
// probabilities, so a fraction of transactions are genuinely distributed
// (multi-shard 2PC).
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"treaty"
	"treaty/internal/workload"
)

func main() {
	log.SetFlags(0)
	cfg := workload.TPCCConfig{
		Warehouses:            4,
		DistrictsPerWarehouse: 10,
		CustomersPerDistrict:  30,
		Items:                 200,
	}
	if err := run(cfg, 6, 50); err != nil {
		log.Fatal(err)
	}
}

// run loads cfg and has clients goroutines run perClient transactions
// each; it fails if none commits.
func run(cfg workload.TPCCConfig, clients, perClient int) error {
	fmt.Printf("Booting secure cluster; loading TPC-C (%d warehouses)...\n", cfg.Warehouses)
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes:       3,
		Mode:        treaty.ModeSconeEnc,
		LockTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()

	begin := func(node *treaty.Node) workload.Begin {
		return func() workload.Txn { return node.Begin(nil) }
	}
	loader := workload.NewTPCC(cfg, 7)
	start := time.Now()
	if err := loader.Load(begin(cluster.Node(0)), 500); err != nil {
		return fmt.Errorf("loading: %w", err)
	}
	fmt.Printf("  loaded in %v (every row encrypted, every batch a distributed txn)\n",
		time.Since(start).Round(time.Millisecond))

	var mu sync.Mutex
	counts := map[workload.TPCCTxnType]int{}
	rollbacks, conflicts := 0, 0

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driver := workload.NewTPCC(cfg, int64(100+c))
			node := cluster.Node(c % cluster.Nodes())
			home := 1 + c%cfg.Warehouses
			for i := 0; i < perClient; i++ {
				typ := driver.NextType()
				err := driver.Run(begin(node), typ, home)
				mu.Lock()
				switch {
				case err == nil:
					counts[typ]++
				case errors.Is(err, workload.ErrAbortedByUser):
					rollbacks++
				default:
					conflicts++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	fmt.Println("Transaction mix executed:")
	total := 0
	for _, typ := range []workload.TPCCTxnType{
		workload.TxnNewOrder, workload.TxnPayment, workload.TxnOrderStatus,
		workload.TxnDelivery, workload.TxnStockLevel,
	} {
		fmt.Printf("  %-12s %4d committed\n", typ, counts[typ])
		total += counts[typ]
	}
	fmt.Printf("  %-12s %4d (spec-mandated 1%% new-order rollbacks)\n", "user-aborts", rollbacks)
	fmt.Printf("  %-12s %4d (lock conflicts, retried in production drivers)\n", "aborts", conflicts)
	fmt.Printf("Committed %d/%d transactions across %d clients.\n", total, clients*perClient, clients)
	if total == 0 {
		return errors.New("no transaction committed")
	}
	return nil
}
