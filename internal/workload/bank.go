package workload

import (
	"fmt"
	"math/rand"
)

// BankConfig parameterizes the bank-transfer workload the chaos soaks
// drive: random transfers between accounts whose balance sum is a
// global invariant, plus a per-worker commit counter riding in the same
// transaction (the "no committed write lost" probe).
type BankConfig struct {
	// Accounts is the number of bank accounts (default 32).
	Accounts int
	// MaxAmount bounds a single transfer (default 10).
	MaxAmount int64
}

func (c BankConfig) withDefaults() BankConfig {
	if c.Accounts == 0 {
		c.Accounts = 32
	}
	if c.MaxAmount == 0 {
		c.MaxAmount = 10
	}
	return c
}

// BankTransfer is one generated transfer: move Amount from one account
// to the other. From and To are always distinct.
type BankTransfer struct {
	From, To int
	Amount   int64
}

// Bank generates a deterministic stream of transfers from a seed; each
// worker owns one generator, so a soak run is reproducible from its
// seed alone.
type Bank struct {
	cfg BankConfig
	rng *rand.Rand
}

// NewBank creates a seeded generator.
func NewBank(cfg BankConfig, seed int64) *Bank {
	return &Bank{cfg: cfg.withDefaults(), rng: rand.New(rand.NewSource(seed))}
}

// Next generates the next transfer.
func (b *Bank) Next() BankTransfer {
	from := b.rng.Intn(b.cfg.Accounts)
	to := b.rng.Intn(b.cfg.Accounts)
	for to == from {
		to = b.rng.Intn(b.cfg.Accounts)
	}
	return BankTransfer{From: from, To: to, Amount: 1 + b.rng.Int63n(b.cfg.MaxAmount)}
}

// Intn exposes the generator's RNG for auxiliary choices (e.g. which
// node coordinates), keeping the whole worker deterministic per seed.
func (b *Bank) Intn(n int) int { return b.rng.Intn(n) }

// BankAccountKey names account i's row.
func BankAccountKey(i int) []byte { return []byte(fmt.Sprintf("bank/acct/%04d", i)) }

// BankWorkerKey names worker w's commit-counter row.
func BankWorkerKey(w int) []byte { return []byte(fmt.Sprintf("bank/worker/%d", w)) }
