// Command bank demonstrates distributed atomicity and isolation: a set
// of accounts sharded across 3 nodes, hammered by concurrent transfer
// transactions. Because every transfer debits one shard and credits
// another inside a single serializable 2PC transaction, the total amount
// of money is invariant — the example verifies it continuously.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"treaty"
)

const initialBalance = 1000

func main() {
	log.SetFlags(0)
	if err := run(50, 8, 40); err != nil {
		log.Fatal(err)
	}
}

func acctKey(i int) []byte { return []byte(fmt.Sprintf("acct:%04d", i)) }

func encBalance(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

func decBalance(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// run seeds that many accounts, has workers goroutines attempt
// transfersPer transfers each, and checks the total.
func run(accounts, workers, transfersPer int) (err error) {
	fmt.Printf("Booting cluster; creating %d accounts with %d each (total %d)...\n",
		accounts, initialBalance, accounts*initialBalance)
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes: 3,
		Mode:  treaty.ModeSconeEnc,
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, cluster.Stop()) }()

	// Seed accounts in one transaction.
	seed := cluster.Node(0).Begin(nil)
	for i := 0; i < accounts; i++ {
		if err := seed.Put(acctKey(i), encBalance(initialBalance)); err != nil {
			return err
		}
	}
	if err := seed.Commit(); err != nil {
		return err
	}

	var committed, aborted atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := cluster.Node(w % cluster.Nodes())
			for i := 0; i < transfersPer; i++ {
				from := (w*7 + i*3) % accounts
				to := (from + 1 + i%11) % accounts
				amount := uint64(1 + i%17)
				if transfer(node, from, to, amount) {
					committed.Add(1)
				} else {
					aborted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("Ran %d transfers: %d committed, %d aborted (lock conflicts)\n",
		workers*transfersPer, committed.Load(), aborted.Load())

	// Verify the invariant.
	check := cluster.Node(1).Begin(nil)
	var total uint64
	for i := 0; i < accounts; i++ {
		v, found, err := check.Get(acctKey(i))
		if err != nil || !found {
			return fmt.Errorf("account %d missing: %v", i, err)
		}
		total += decBalance(v)
	}
	check.Rollback()
	fmt.Printf("Total after transfers: %d\n", total)
	if total != uint64(accounts*initialBalance) {
		return fmt.Errorf("INVARIANT VIOLATED: total %d != %d — money was created or destroyed",
			total, accounts*initialBalance)
	}
	fmt.Println("Invariant holds: serializable distributed transactions preserved the total.")
	return nil
}

// transfer moves amount between two (usually remote) accounts in one
// distributed transaction; it reports whether the transaction committed.
func transfer(node *treaty.Node, from, to int, amount uint64) bool {
	tx := node.Begin(nil)
	fv, found, err := tx.Get(acctKey(from))
	if err != nil || !found {
		tx.Rollback()
		return false
	}
	tv, found, err := tx.Get(acctKey(to))
	if err != nil || !found {
		tx.Rollback()
		return false
	}
	fb, tb := decBalance(fv), decBalance(tv)
	if fb < amount {
		tx.Rollback()
		return false
	}
	if err := tx.Put(acctKey(from), encBalance(fb-amount)); err != nil {
		tx.Rollback()
		return false
	}
	if err := tx.Put(acctKey(to), encBalance(tb+amount)); err != nil {
		tx.Rollback()
		return false
	}
	return tx.Commit() == nil
}
