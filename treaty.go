// Package treaty is a secure distributed transactional key-value store:
// a Go reproduction of "Treaty: Secure Distributed Transactions"
// (Giantsidi, Bailleu, Crooks, Bhatotia — DSN 2022).
//
// Treaty offers serializable ACID transactions over sharded data while
// guaranteeing confidentiality, integrity, and freshness against an
// adversary who controls the entire software stack outside the (simulated)
// enclaves — including the network and persistent storage. The system
// combines:
//
//   - a secure two-phase commit protocol co-designed with a kernel-bypass
//     RPC library (every message sealed, replay-protected, at-most-once);
//   - a SPEICHER-style authenticated LSM storage engine (encrypted
//     SSTable blocks, hash-chained counter-bound WAL/MANIFEST);
//   - a stabilization protocol over a ROTE-style distributed trusted
//     counter service, making committed transactions rollback-protected
//     across crashes and forks;
//   - a CAS/LAS attestation substrate that bootstraps collective trust
//     and provisions keys only to genuine enclaves.
//
// Quick start:
//
//	cluster, err := treaty.NewCluster(treaty.ClusterOptions{
//	    Nodes: 3,
//	    Mode:  treaty.ModeSconeEncStab,
//	})
//	if err != nil { ... }
//	defer cluster.Stop()
//
//	client, err := cluster.NewClient()
//	if err != nil { ... }
//	tx, err := client.BeginTxn()
//	if err != nil { ... }
//	_ = tx.TxnPut([]byte("k"), []byte("v"))
//	v, found, _ := tx.TxnGet([]byte("k"))
//	_ = tx.TxnCommit() // durable + rollback-protected on success
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package treaty

import (
	"treaty/internal/core"
)

// Cluster is an in-process Treaty deployment: N nodes, the configuration
// and attestation service, the trusted-counter protection group, and the
// simulated network fabric.
type Cluster = core.Cluster

// ClusterOptions configures NewCluster.
type ClusterOptions = core.ClusterOptions

// Node is one Treaty node (storage engine + transaction layer + 2PC
// coordinator/participant inside an enclave).
type Node = core.Node

// Client is an authenticated Treaty client.
type Client = core.Client

// ClientTxn is one interactive client transaction (BeginTxn / TxnGet /
// TxnPut / TxnDelete / TxnCommit / TxnRollback).
type ClientTxn = core.ClientTxn

// SecurityMode selects a system configuration (see the Mode constants).
type SecurityMode = core.SecurityMode

// Security modes, from the insecure native baseline to the full system.
const (
	// ModeRocksDB is the native, non-secure baseline.
	ModeRocksDB = core.ModeRocksDB
	// ModeNativeTreaty runs Treaty natively with integrity protection.
	ModeNativeTreaty = core.ModeNativeTreaty
	// ModeNativeTreatyEnc runs natively with full encryption.
	ModeNativeTreatyEnc = core.ModeNativeTreatyEnc
	// ModeSconeNoEnc runs in the enclave without encryption.
	ModeSconeNoEnc = core.ModeSconeNoEnc
	// ModeSconeEnc runs in the enclave with encryption.
	ModeSconeEnc = core.ModeSconeEnc
	// ModeSconeEncStab is the full system: enclave, encryption, and
	// distributed rollback protection (stabilization).
	ModeSconeEncStab = core.ModeSconeEncStab
)

// NewCluster boots an in-process cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return core.NewCluster(opts) }
