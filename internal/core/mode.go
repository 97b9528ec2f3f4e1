// Package core assembles Treaty nodes and clusters: it wires the
// simulated TEE, the storage engine, the transaction layer, the 2PC
// coordinator/participant, the secure RPC endpoint, the trusted counter
// client, and the attestation bootstrap into the system of Figure 1, and
// exposes the transactional client API (BeginTxn / TxnGet / TxnPut /
// TxnCommit / TxnRollback).
package core

import (
	"fmt"

	"treaty/internal/enclave"
	"treaty/internal/seal"
)

// SecurityMode selects one of the system configurations evaluated in the
// paper (§VIII). Each mode fixes the TEE runtime, the storage and
// network security level, and what stabilizes its logs.
type SecurityMode int

const (
	// ModeRocksDB is the native, non-secure baseline (DS-RocksDB /
	// RocksDB in the figures): no TEE costs, CRC-only logs, plaintext
	// RPC, no rollback protection.
	ModeRocksDB SecurityMode = iota + 1
	// ModeNativeTreaty runs Treaty's code natively (no TEE costs) with
	// integrity protection but no encryption.
	ModeNativeTreaty
	// ModeNativeTreatyEnc runs natively with full encryption.
	ModeNativeTreatyEnc
	// ModeSconeNoEnc runs inside the (simulated) enclave without
	// encryption — "Treaty w/o Enc".
	ModeSconeNoEnc
	// ModeSconeEnc runs inside the enclave with encryption — "Treaty w/
	// Enc".
	ModeSconeEnc
	// ModeSconeEncStab additionally runs the distributed trusted counter
	// service and gates acknowledgements on stabilization — "Treaty w/
	// Enc w/ Stab", the full system.
	ModeSconeEncStab
)

// CounterKind names what stabilizes a mode's logs.
type CounterKind int

const (
	// CounterNone is no rollback protection, and none paid for: each log
	// gets durlog's immediate counter, which persists nothing and gives
	// recovery no trusted value. A reboot keeps every complete record; at
	// the secure levels anything but a byte-truncated tail refuses it.
	CounterNone CounterKind = iota
	// CounterService is the replicated trusted counter service (§VI):
	// commits wait for their records to stabilize on it, and recovery
	// replays each log against its quorum-stable value.
	CounterService
)

// Policy is what a SecurityMode fixes. Everything that depends on the
// mode reads it from here.
type Policy struct {
	// Label is the mode's name in the paper's figures.
	Label string
	// Enclave is the TEE runtime whose costs are charged.
	Enclave enclave.Mode
	// Level seals the persistent structures (WAL, MANIFEST, SSTables,
	// Clog). At LevelEncrypted node-to-node and client-to-node messages
	// are sealed too: the paper's "w/ Enc" encrypts storage and network
	// alike.
	Level seal.SecurityLevel
	// Counter is the stabilization backend. Every commit waits for its
	// record to stabilize; under CounterNone that is a single poll.
	Counter CounterKind
}

// policies has one row per mode, indexed by it.
var policies = [...]Policy{
	ModeRocksDB:         {"RocksDB", enclave.ModeNative, seal.LevelNone, CounterNone},
	ModeNativeTreaty:    {"Native Treaty", enclave.ModeNative, seal.LevelIntegrity, CounterNone},
	ModeNativeTreatyEnc: {"Native Treaty w/ Enc", enclave.ModeNative, seal.LevelEncrypted, CounterNone},
	ModeSconeNoEnc:      {"Treaty w/o Enc", enclave.ModeScone, seal.LevelIntegrity, CounterNone},
	ModeSconeEnc:        {"Treaty w/ Enc", enclave.ModeScone, seal.LevelEncrypted, CounterNone},
	ModeSconeEncStab:    {"Treaty w/ Enc w/ Stab", enclave.ModeScone, seal.LevelEncrypted, CounterService},
}

// Policy returns m's row; a value that names no mode has the zero Policy.
func (m SecurityMode) Policy() Policy {
	if m < 1 || int(m) >= len(policies) {
		return Policy{}
	}
	return policies[m]
}

// String returns the evaluation label for the mode.
func (m SecurityMode) String() string {
	if p := m.Policy(); p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("SecurityMode(%d)", int(m))
}

// AllModes lists the six single-node evaluation versions in figure order.
func AllModes() []SecurityMode {
	modes := make([]SecurityMode, 0, len(policies)-1)
	for m := ModeRocksDB; int(m) < len(policies); m++ {
		modes = append(modes, m)
	}
	return modes
}
