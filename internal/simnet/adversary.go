package simnet

import (
	"math/rand"
	"sync"
)

// FuncAdversary adapts a function to the Adversary interface.
type FuncAdversary func(pkt Packet) Verdict

// Interpose implements Adversary.
func (f FuncAdversary) Interpose(pkt Packet) Verdict { return f(pkt) }

var _ Adversary = (FuncAdversary)(nil)

// Recorder is an adversary that passively records traffic for later
// replay. It is the building block for replay attacks: capture a packet,
// then re-inject it with Replay.
type Recorder struct {
	mu       sync.Mutex
	captured []Packet
	// Filter selects which packets to capture; nil captures everything.
	Filter func(Packet) bool
	// Limit caps how many packets are captured (0 = unbounded); soaks
	// set it so a capture round cannot hold a whole round of traffic in
	// memory.
	Limit int
}

// Interpose implements Adversary: record and pass through.
func (r *Recorder) Interpose(pkt Packet) Verdict {
	if r.Filter == nil || r.Filter(pkt) {
		r.mu.Lock()
		if r.Limit <= 0 || len(r.captured) < r.Limit {
			r.captured = append(r.captured, Packet{
				From: pkt.From,
				To:   pkt.To,
				Data: append([]byte(nil), pkt.Data...),
			})
		}
		r.mu.Unlock()
	}
	return Verdict{}
}

// Captured returns a snapshot of the recorded packets.
func (r *Recorder) Captured() []Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Packet, len(r.captured))
	copy(out, r.captured)
	return out
}

// Replay re-injects every captured packet into the network, impersonating
// the original senders — the classic duplication attack Treaty's
// (node, tx, op) dedup must reject.
func (r *Recorder) Replay(n *Network) error {
	for _, pkt := range r.Captured() {
		if err := n.send(pkt); err != nil {
			return err
		}
	}
	return nil
}

var _ Adversary = (*Recorder)(nil)

// Corrupter flips bits in a random payload byte of matching packets with
// the given probability.
type Corrupter struct {
	// Probability is the chance a matching packet is corrupted.
	Probability float64
	// Filter selects target packets; nil matches everything.
	Filter func(Packet) bool

	mu  sync.Mutex
	rng *rand.Rand
}

// NewCorrupter creates a corrupter with a seeded RNG.
func NewCorrupter(probability float64, seed int64) *Corrupter {
	return &Corrupter{Probability: probability, rng: rand.New(rand.NewSource(seed))}
}

// Interpose implements Adversary.
func (c *Corrupter) Interpose(pkt Packet) Verdict {
	if c.Filter != nil && !c.Filter(pkt) {
		return Verdict{}
	}
	c.mu.Lock()
	hit := c.rng.Float64() < c.Probability
	var pos int
	if hit && len(pkt.Data) > 0 {
		pos = c.rng.Intn(len(pkt.Data))
	}
	c.mu.Unlock()
	if !hit || len(pkt.Data) == 0 {
		return Verdict{}
	}
	return Verdict{Mutate: func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[pos] ^= 0xFF
		return out
	}}
}

var _ Adversary = (*Corrupter)(nil)
