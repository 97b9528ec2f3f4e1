package bench

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// Figures 4 and 8 measure the packet path with nothing above it: two erpc
// endpoints over the simulated fabric, built the way a node builds its
// own, so a packet is charged where a node's packet is — once by its
// sender and once by its receiver, at the runtime's one price list.
// Sealing is real AES-GCM. Figure 4 drives the 2PC message pattern over
// the rig, Figure 8 N-byte calls.

// NetArm is one arm of the packet-path figures.
type NetArm struct {
	// Label is the figure's legend entry.
	Label string
	// Scone runs the endpoints on a SCONE runtime instead of a native one.
	Scone bool
	// Sealed seals every message in Treaty's secure format.
	Sealed bool
}

// NetArms lists the arms both figures run, in figure order: {native,
// SCONE} × {plain, sealed}, each plain arm right before its sealed twin.
// The last is Treaty's networking.
func NetArms() []NetArm {
	return []NetArm{
		{Label: "Native"},
		{Label: "Native w/ Enc", Sealed: true},
		{Label: "Secure w/o Enc", Scone: true},
		{Label: "Secure w/ Enc", Scone: true, Sealed: true},
	}
}

// NetRun is one arm's run over the rig: the median round (Tps counts
// transactions in Fig. 4, calls in Fig. 8) and the counts of the whole
// window.
type NetRun struct {
	Measurement
	// Done counts the units of work that succeeded, the ones finishing
	// after the window included, so the counts below are Done units' worth
	// when nothing failed.
	Done uint64
	// Packets and WireBytes are what the fabric delivered.
	Packets, WireBytes uint64
	// Messages and Syscalls are what the arm's runtime charged.
	Messages, Syscalls uint64
}

const rigServer = "rig-server"

// runRig is where both figures build their endpoints: a client and a
// server over one fabric, each handing arm a's runtime to
// erpc.NewSimTransport. It serves handlers and drives clients closed-loop
// for window, each unit of work calling the server under a fresh
// transaction id.
func runRig(a NetArm, handlers map[uint8]erpc.Handler, clients int, window time.Duration, work func(call func(reqType uint8, body []byte) error) error) (NetRun, error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return NetRun{}, err
	}
	mode := enclave.ModeNative
	if a.Scone {
		mode = enclave.ModeScone
	}
	rt := enclave.NewRuntime(enclave.RuntimeConfig{Mode: mode})
	net := simnet.New(hostLink, 1)
	defer net.Close()
	var eps [2]*erpc.Endpoint
	for i, addr := range []string{"rig-client", rigServer} {
		nep, err := net.Listen(addr)
		if err == nil {
			eps[i], err = erpc.NewEndpoint(erpc.Config{
				NodeID:     uint64(i + 1),
				Transport:  erpc.NewSimTransport(nep, rt, erpc.KindDPDK),
				NetworkKey: key,
				Secure:     a.Sealed,
				RxBurst:    64,
			})
		}
		if err != nil {
			return NetRun{}, err
		}
	}
	client, server := eps[0], eps[1]
	for t, h := range handlers {
		server.Register(t, h)
	}
	for _, ep := range eps {
		defer erpc.StartPoller(ep).Stop()
	}
	var txSeq, done atomic.Uint64
	m := drive(clients, window, func(int) error {
		tx := txSeq.Add(1)
		err := work(func(reqType uint8, body []byte) error {
			md := seal.MsgMetadata{TxID: tx, OpType: uint32(reqType)}
			_, err := erpc.Call(client, rigServer, reqType, md, body, 5*time.Second, nil)
			return err
		})
		if err == nil {
			done.Add(1)
		}
		return err
	})
	m.Label = a.Label
	// A reply can be handled before the fabric counts its delivery: count
	// once the fabric's law holds.
	for deadline := time.Now().Add(time.Second); net.Stats().Law() != nil && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st, charged := net.Stats(), rt.Stats()
	return NetRun{Measurement: m, Done: done.Load(), Packets: st.Delivered, WireBytes: st.BytesDelivered,
		Messages: charged.Messages, Syscalls: charged.AsyncSyscalls}, nil
}

// perUnit is n / d, 0 when d is.
func perUnit(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Figure 4: Treaty's 2PC protocol in isolation — no storage underneath —
// under YCSB 50R/50W (10 ops/txn, 1000 B values). The paper measures
// ~1.05× for native encryption, ~1.8× for SCONE without encryption, and
// ~2× for SCONE with encryption, all normalized to the native run. Each
// transaction replays Fig. 2's message flow: the operation calls, a
// prepare and a commit, from a coordinator to a participant.

// Fig4Config tunes the run.
type Fig4Config struct {
	// Clients is the number of concurrent closed-loop clients (default 32).
	Clients int
	// Duration per arm (default 2s).
	Duration time.Duration
	// OpsPerTxn defaults to the paper's 10.
	OpsPerTxn int
}

// Request types: Figure 4's three, Figure 8's one.
const (
	fig4Op      uint8 = 0x40
	fig4Prepare uint8 = 0x41
	fig4Commit  uint8 = 0x42
	fig8Call    uint8 = 0x43
)

// RunFig4 measures the given arms and returns them in order.
func RunFig4(cfg Fig4Config, arms []NetArm) ([]NetRun, error) {
	if cfg.Clients == 0 {
		cfg.Clients = 32
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.OpsPerTxn == 0 {
		cfg.OpsPerTxn = 10
	}
	// The participant executes nothing. A read (empty request) returns the
	// value, so read responses cost what write requests cost — on the wire
	// and in the cipher.
	value := make([]byte, 1000)
	ack := func(req *erpc.Request) { req.Reply(nil) }
	handlers := map[uint8]erpc.Handler{
		fig4Op: func(req *erpc.Request) {
			if len(req.Payload) == 0 {
				req.Reply(value)
				return
			}
			req.Reply(nil)
		},
		fig4Prepare: ack,
		fig4Commit:  ack,
	}
	txn := func(call func(uint8, []byte) error) error {
		for op := 0; op < cfg.OpsPerTxn; op++ {
			body := value
			if op%2 == 0 {
				body = nil // read
			}
			if err := call(fig4Op, body); err != nil {
				return err
			}
		}
		if err := call(fig4Prepare, nil); err != nil {
			return err
		}
		return call(fig4Commit, nil)
	}
	out := make([]NetRun, 0, len(arms))
	for _, a := range arms {
		run, err := runRig(a, handlers, cfg.Clients, cfg.Duration, txn)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// PrintFig4 renders the figure and the counts behind it.
func PrintFig4(runs []NetRun) string {
	ms := make([]Measurement, len(runs))
	for i, r := range runs {
		ms[i] = r.Measurement
	}
	var b strings.Builder
	b.WriteString(Table(fmt.Sprintf("Figure 4: 2PC protocol slowdown w.r.t. %s (YCSB 50R/50W, no storage)", ms[0].Label), ms))
	fmt.Fprintf(&b, "  %-28s %12s %12s %15s %9s\n", "version", "packets/txn", "wire B/pkt", "charges/packet", "syscalls")
	for _, r := range runs {
		fmt.Fprintf(&b, "  %-28s %12.2f %12.2f %15.2f %9d\n", r.Label,
			perUnit(r.Packets, r.Done), perUnit(r.WireBytes, r.Packets), perUnit(r.Messages, r.Packets), r.Syscalls)
	}
	return b.String()
}

// Figure 8: network bandwidth across the paper's message sizes. Each call
// carries an N-byte request and gets an empty reply, eight in flight; the
// figure plots request goodput. The paper's iPerf socket rows have no
// counterpart: the repository has no socket transport.

// Fig8Sizes are the paper's message sizes in bytes.
func Fig8Sizes() []int { return []int{64, 256, 1024, 1460, 2048, 4096} }

// RunFig8 drives every arm at every message size for perPoint each.
// Result: one row per NetArms entry, one run per Fig8Sizes entry.
func RunFig8(perPoint time.Duration) ([][]NetRun, error) {
	if perPoint == 0 {
		perPoint = 150 * time.Millisecond
	}
	handlers := map[uint8]erpc.Handler{fig8Call: func(req *erpc.Request) { req.Reply(nil) }}
	var out [][]NetRun
	for _, a := range NetArms() {
		var row []NetRun
		for _, size := range Fig8Sizes() {
			msg := make([]byte, size)
			run, err := runRig(a, handlers, 8, perPoint, func(call func(uint8, []byte) error) error {
				return call(fig8Call, msg)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, run)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintFig8 renders the goodput series and the wire bytes per packet.
func PrintFig8(runs [][]NetRun) string {
	sizes := Fig8Sizes()
	xs := make([]string, len(sizes))
	for i, s := range sizes {
		xs[i] = strconv.Itoa(s) + "B"
	}
	gbps, wire := map[string][]float64{}, map[string][]float64{}
	var order []string
	for _, row := range runs {
		label := row[0].Label
		order = append(order, label)
		for i, r := range row {
			gbps[label] = append(gbps[label], r.Tps*float64(sizes[i])*8/1e9)
			wire[label] = append(wire[label], perUnit(r.WireBytes, r.Packets))
		}
	}
	return SeriesTable("Figure 8: request goodput (Gb/s) by message size", "message size", xs, gbps, order) +
		SeriesTable("Figure 8: wire bytes per packet", "message size", xs, wire, order)
}
