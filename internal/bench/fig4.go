package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// Figure 4: Treaty's 2PC protocol in isolation — no storage underneath —
// under YCSB 50R/50W (10 ops/txn, 1000 B values). Four versions: Native
// 2PC, Native w/ Enc, Secure (SCONE) w/o Enc, Secure w/ Enc. The paper
// measures ~1.05× for native encryption, ~1.8× for SCONE without
// encryption, and ~2× for SCONE with encryption, all normalized to the
// native run.
//
// The protocol skeleton replays Fig. 2's message flow exactly: ten
// operation request/responses, a prepare round, and a commit round per
// transaction, between a coordinator and a participant endpoint over the
// kernel-bypass transport. SCONE's cost is the enclave↔host message
// buffer copy charged per message (message buffers live in untrusted
// host memory, §VII-D); encryption cost is real AES-GCM.

// Fig4Version is one evaluated configuration.
type Fig4Version struct {
	// Label is the figure's legend entry.
	Label string
	// Scone charges enclave copy costs per message.
	Scone bool
	// Enc seals all protocol messages.
	Enc bool
}

// Fig4Versions lists the four configurations in figure order.
func Fig4Versions() []Fig4Version {
	return []Fig4Version{
		{Label: "Native 2PC", Scone: false, Enc: false},
		{Label: "Native w/ Enc", Scone: false, Enc: true},
		{Label: "Secure w/o Enc", Scone: true, Enc: false},
		{Label: "Secure w/ Enc", Scone: true, Enc: true},
	}
}

// Fig4Config tunes the run.
type Fig4Config struct {
	// Clients is the number of concurrent drivers (default 32).
	Clients int
	// Duration per version (default 2s).
	Duration time.Duration
	// OpsPerTxn and ValueSize are the YCSB parameters (defaults 10 and
	// 1000, the paper's).
	OpsPerTxn int
	ValueSize int
}

// fig4Protocol request types.
const (
	fig4Op      uint8 = 0x40
	fig4Prepare uint8 = 0x41
	fig4Commit  uint8 = 0x42
)

// Per-message CPU costs, charged per side (send and receive). The base
// cost models the native kernel-bypass NIC path (driver + eRPC framing,
// ~2.5 µs — the paper's testbed pays this in every version, which is why
// encryption alone barely moves the needle there). SCONE adds the
// enclave-boundary overhead plus the enclave↔host buffer copy per KiB.
const (
	fig4BaseMsgCost   = 2500 * time.Nanosecond
	fig4SconeMsgCost  = 1700 * time.Nanosecond
	fig4SconeCopyPerK = 650 * time.Nanosecond
)

// fig4Cost returns the per-side CPU cost of one message of n bytes.
func fig4Cost(v Fig4Version, n int) time.Duration {
	cost := fig4BaseMsgCost
	if v.Scone {
		kb := time.Duration((n + 1023) / 1024)
		cost += fig4SconeMsgCost + kb*fig4SconeCopyPerK
	}
	return cost
}

// RunFig4 measures the given versions and returns them in order.
func RunFig4(cfg Fig4Config, versions []Fig4Version) ([]Measurement, error) {
	if cfg.Clients == 0 {
		cfg.Clients = 32
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.OpsPerTxn == 0 {
		cfg.OpsPerTxn = 10
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 1000
	}
	out := make([]Measurement, 0, len(versions))
	for _, v := range versions {
		m, err := runFig4Version(cfg, v)
		if err != nil {
			return nil, err
		}
		m.Label = v.Label
		out = append(out, m)
	}
	return out, nil
}

// runFig4Version measures one configuration.
func runFig4Version(cfg Fig4Config, v Fig4Version) (Measurement, error) {
	net := simnet.New(simnet.LinkConfig{Latency: 5 * time.Microsecond}, 4)
	defer net.Close()
	key, err := seal.NewRandomKey()
	if err != nil {
		return Measurement{}, err
	}

	mk := func(addr string, id uint64) (*erpc.Endpoint, error) {
		nep, lerr := net.Listen(addr)
		if lerr != nil {
			return nil, lerr
		}
		return erpc.NewEndpoint(erpc.Config{
			NodeID:     id,
			Transport:  erpc.NewSimTransport(nep, nil, erpc.KindDPDK),
			NetworkKey: key,
			Secure:     v.Enc,
			RxBurst:    64,
		})
	}
	coord, err := mk("fig4-coord", 1)
	if err != nil {
		return Measurement{}, err
	}
	part, err := mk("fig4-part", 2)
	if err != nil {
		return Measurement{}, err
	}
	// Participant: execute the operation (no storage), charging the
	// per-message network cost on receive and reply. Reads (empty
	// request body) return the value, so read responses cost what write
	// requests cost — on the wire and in the cipher.
	value := make([]byte, cfg.ValueSize)
	opHandler := func(req *erpc.Request) {
		resp := []byte(nil)
		if len(req.Payload) == 0 {
			resp = value
		}
		enclave.Spin(fig4Cost(v, len(req.Payload)+seal.MsgOverhead) +
			fig4Cost(v, len(resp)+seal.MsgOverhead))
		req.Reply(resp)
	}
	ctlHandler := func(req *erpc.Request) {
		enclave.Spin(2 * fig4Cost(v, seal.MsgOverhead))
		req.Reply(nil)
	}
	part.Register(fig4Op, opHandler)
	part.Register(fig4Prepare, ctlHandler)
	part.Register(fig4Commit, ctlHandler)
	p1, p2 := erpc.StartPoller(coord), erpc.StartPoller(part)
	defer p1.Stop()
	defer p2.Stop()

	payload := make([]byte, cfg.ValueSize)
	var txSeq, opSeq atomic.Uint64
	call := func(reqType uint8, tx uint64, body []byte) error {
		md := seal.MsgMetadata{TxID: tx, OpID: opSeq.Add(1), OpType: uint32(reqType)}
		// Send + (later) receive cost on the coordinator side.
		enclave.Spin(2 * fig4Cost(v, len(body)+seal.MsgOverhead))
		_, cerr := erpc.Call(coord, "fig4-part", reqType, md, body, 5*time.Second, nil)
		return cerr
	}

	return drive(cfg.Clients, cfg.Duration, func(int) error {
		tx := txSeq.Add(1)
		// Half the operations are writes carrying the value; half reads.
		for op := 0; op < cfg.OpsPerTxn; op++ {
			body := payload
			if op%2 == 0 {
				body = nil // read request
			}
			if err := call(fig4Op, tx, body); err != nil {
				return err
			}
		}
		if err := call(fig4Prepare, tx, nil); err != nil {
			return err
		}
		return call(fig4Commit, tx, nil)
	}), nil
}

// PrintFig4 renders the figure's output.
func PrintFig4(ms []Measurement) string {
	return Table(fmt.Sprintf("Figure 4: 2PC protocol slowdown w.r.t. %s (YCSB 50R/50W, no storage)", ms[0].Label), ms)
}
