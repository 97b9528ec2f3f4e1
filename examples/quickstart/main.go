// Command quickstart boots a 3-node Treaty cluster in full security mode
// (enclaves + encryption + distributed rollback protection), connects an
// authenticated client, and runs a couple of interactive transactions —
// the minimal end-to-end tour of the public API.
package main

import (
	"errors"
	"fmt"
	"log"

	"treaty"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	fmt.Println("Booting a 3-node Treaty cluster (full security: enclave + encryption + stabilization)...")
	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
		Nodes: 3,
		Mode:  treaty.ModeSconeEncStab,
	})
	if err != nil {
		return fmt.Errorf("booting cluster: %w", err)
	}
	defer func() { err = errors.Join(err, cluster.Stop()) }()
	fmt.Println("  cluster up: nodes attested to the CAS, keys provisioned, counter group running")

	client, err := cluster.NewClient()
	if err != nil {
		return fmt.Errorf("connecting client: %w", err)
	}
	defer client.Close()
	fmt.Println("  client authenticated via CAS (network key received over attested channel)")

	// Transaction 1: write a few keys atomically across shards.
	tx, err := client.BeginTxn()
	if err != nil {
		return err
	}
	users := map[string]string{
		"user:1001": "alice",
		"user:1002": "bob",
		"user:1003": "carol",
	}
	for k, v := range users {
		if err := tx.TxnPut([]byte(k), []byte(v)); err != nil {
			return err
		}
	}
	if err := tx.TxnCommit(); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	fmt.Println("  committed 3 keys in one distributed transaction (2PC + stabilization)")

	// Transaction 2: read them back.
	tx2, err := client.BeginTxn()
	if err != nil {
		return err
	}
	for k, want := range users {
		v, found, err := tx2.TxnGet([]byte(k))
		if err != nil {
			return err
		}
		if !found || string(v) != want {
			return fmt.Errorf("read %s: got %q/%v, want %q", k, v, found, want)
		}
		fmt.Printf("  %s = %s\n", k, v)
	}
	if err := tx2.TxnRollback(); err != nil {
		return err
	}

	// Transaction 3: rollback discards writes.
	tx3, err := client.BeginTxn()
	if err != nil {
		return err
	}
	if err := tx3.TxnPut([]byte("user:9999"), []byte("eve")); err != nil {
		return err
	}
	if err := tx3.TxnRollback(); err != nil {
		return err
	}
	tx4, err := client.BeginTxn()
	if err != nil {
		return err
	}
	if _, found, err := tx4.TxnGet([]byte("user:9999")); err != nil {
		return err
	} else if found {
		return fmt.Errorf("rolled-back write is visible")
	}
	tx4.TxnRollback()
	fmt.Println("  rollback verified: aborted writes are invisible")
	fmt.Println("Done. Every committed transaction is serializable, encrypted at rest and in flight, and rollback-protected.")
	return nil
}
