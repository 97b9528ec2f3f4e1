package bench

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/seal"
)

// The cluster-panel shape test runs each panel at miniature scale and
// asserts structural properties (right versions, sane numbers) plus the
// ordering the panel declares, on round medians. It times wall-clock
// windows, so -short (the race-detector pass) skips it. Full-scale runs
// live in the repository-root benchmarks.

func skipTimed(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("times wall-clock windows")
	}
}

// TestExperimentsShape smokes every panel of every experiment in the
// table: arm count, labels and order as declared, every arm committed,
// one metrics snapshot per node that accounts for the commits, and the
// ordering the panel declares.
func TestExperimentsShape(t *testing.T) {
	skipTimed(t)
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if len(e.Panels) == 0 {
				t.Fatal("no panels")
			}
			for _, s := range e.Panels {
				checkPanel(t, miniature(s))
			}
		})
	}
}

// miniature shrinks a panel to tier-1 scale: few clients, rounds of a
// twentieth of the full window (100 ms for the figure panels), and a
// TPC-C population that loads in a blink yet gives every client a home
// warehouse of its own (shared ones stretch rounds by the lock timeout).
func miniature(s Spec) Spec {
	s.Clients = 4
	s.Window = s.Window / 20 * rounds
	s.Warehouses = min(s.Warehouses, s.Clients)
	return s
}

func checkPanel(t *testing.T, s Spec) {
	t.Helper()
	ms, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Title, err)
	}
	out := Table(s.Title, ms)
	t.Log("\n" + out)
	if len(ms) != len(s.Arms) {
		t.Fatalf("%s: %d measurements for %d arms", s.Title, len(ms), len(s.Arms))
	}
	for i, m := range ms {
		if m.Label == "" || m.Label != s.Arms[i].Label || !strings.Contains(out, m.Label) {
			t.Errorf("%s: row %d labelled %q, arm is %q", s.Title, i, m.Label, s.Arms[i].Label)
		}
		if m.Committed == 0 || m.Tps <= 0 {
			t.Errorf("%s: %s committed nothing (%d committed, %d aborted, %.0f tps)", s.Title, m.Label, m.Committed, m.Aborted, m.Tps)
		}
		if len(m.Metrics) != s.Arms[i].Nodes {
			t.Errorf("%s: %s: %d metrics snapshots, want one per node", s.Title, m.Label, len(m.Metrics))
			continue
		}
		var committed, walAppends uint64
		for _, snap := range m.Metrics {
			committed += snap.Counter("twopc.tx.committed")
			walAppends += snap.Counter("lsm.wal.appends")
		}
		if walAppends == 0 {
			t.Errorf("%s: %s: snapshots saw no WAL appends", s.Title, m.Label)
		}
		if s.Txn != Distributed {
			continue // local transactions never reach a coordinator
		}
		// The coordinators' since-boot commits cover at least the
		// reported (median) round's.
		if committed < m.Committed {
			t.Errorf("%s: %s: snapshot commits %d < measured commits %d", s.Title, m.Label, committed, m.Committed)
		}
		if m.Metrics["node-0"].Histograms["twopc.stage.commit"].Count == 0 {
			t.Errorf("%s: %s: node-0 snapshot has no commit-stage latency", s.Title, m.Label)
		}
	}
	for i := s.SlowerFrom; s.SlowerFrom > 0 && i < len(ms); i++ {
		if ms[i].Tps >= ms[0].Tps {
			t.Errorf("%s: %s (%.0f tps) should be slower than %s (%.0f tps)",
				s.Title, ms[i].Label, ms[i].Tps, ms[0].Label, ms[0].Tps)
		}
	}
}

// Figures 4 and 8 and Table I are judged on what the host cannot change —
// packets, bytes and charged events — and print their wall-clock numbers
// without asserting on them.

// checkArms checks one message pattern's runs over NetArms: every arm
// delivered with no failure; a sealed arm's wire bytes per packet exceed
// its plain twin's by exactly the seal overhead; a SCONE runtime charged
// one message per packet sent or received and no async syscall
// (kernel-bypass I/O), a native one charged nothing.
func checkArms(t *testing.T, what string, runs []NetRun) {
	t.Helper()
	arms := NetArms()
	if len(runs) != len(arms) {
		t.Fatalf("%s: %d runs for %d arms", what, len(runs), len(arms))
	}
	const overhead = seal.MsgOverhead - seal.MetadataSize // plain frames carry the metadata too
	for i, a := range arms {
		r := runs[i]
		if r.Label != a.Label || r.Done == 0 || r.Aborted != 0 {
			t.Errorf("%s: %s: %+v, want label %q, delivered, no failure", what, a.Label, r, a.Label)
			continue
		}
		if a.Sealed {
			plain := runs[i-1] // the arm table puts each plain arm right before its sealed twin
			if got := perUnit(r.WireBytes, r.Packets) - perUnit(plain.WireBytes, plain.Packets); math.Abs(got-overhead) > 1e-6 {
				t.Errorf("%s: %s: wire bytes per packet exceed %s's by %.4f, want the seal overhead %d", what, a.Label, plain.Label, got, overhead)
			}
		}
		want := uint64(0)
		if a.Scone {
			want = 2 * r.Packets
		}
		if r.Messages != want || r.Syscalls != 0 {
			t.Errorf("%s: %s: %d message charges and %d syscalls over %d packets, want %d and 0", what, a.Label, r.Messages, r.Syscalls, r.Packets, want)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := Fig4Config{Clients: 8, Duration: 300 * time.Millisecond, OpsPerTxn: 10}
	runs, err := RunFig4(cfg, NetArms())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + PrintFig4(runs))
	checkArms(t, "fig4", runs)
	// Fig. 2's pattern: a request and a reply per operation, prepare and
	// commit.
	for _, r := range runs {
		if want := 2 * uint64(cfg.OpsPerTxn+2) * r.Done; r.Packets != want {
			t.Errorf("%s: %d packets for %d transactions, want %d", r.Label, r.Packets, r.Done, want)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	runs, err := RunFig8(60 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + PrintFig8(runs))
	for j, size := range Fig8Sizes() {
		col := make([]NetRun, len(runs))
		for i := range runs {
			col[i] = runs[i][j]
			if want := 2 * col[i].Done; col[i].Packets != want {
				t.Errorf("%dB: %s: %d packets for %d calls, want %d", size, col[i].Label, col[i].Packets, col[i].Done, want)
			}
		}
		checkArms(t, strconv.Itoa(size)+"B", col)
	}
}

func TestTableIShape(t *testing.T) {
	const entries = 4000
	rs, err := RunTableI(RecoveryConfig{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + PrintTableI(rs))
	if len(rs) != 3 || rs[0].Label != "Native recovery" {
		t.Fatalf("versions = %+v, want native recovery and two Treaty versions", rs)
	}
	if rs[0].Syscalls != 0 {
		t.Errorf("native recovery charged %d async syscalls, want 0", rs[0].Syscalls)
	}
	// Treaty recovers in SCONE: every replayed entry crosses the boundary
	// through an async syscall, and a protected entry carries a MAC.
	for _, r := range rs[1:] {
		if r.Syscalls < entries {
			t.Errorf("%s charged %d async syscalls replaying %d entries, want at least one each", r.Label, r.Syscalls, entries)
		}
		if r.LogBytes <= rs[0].LogBytes {
			t.Errorf("%s log (%d B) should exceed the native one (%d B)", r.Label, r.LogBytes, rs[0].LogBytes)
		}
	}
}

func TestMeasurementSlowdown(t *testing.T) {
	base := Measurement{Tps: 100}
	m := Measurement{Tps: 25}
	if got := m.Slowdown(base); got != 4 {
		t.Errorf("slowdown = %v, want 4", got)
	}
	if got := (Measurement{}).Slowdown(base); got != 0 {
		t.Errorf("zero tps slowdown = %v", got)
	}
}

func TestDriveCountsOutcomes(t *testing.T) {
	var n atomic.Int64
	m := drive(2, 50*time.Millisecond, func(int) error {
		if n.Add(1)%3 == 0 {
			return errors.New("test error")
		}
		return nil
	})
	if m.Committed == 0 || m.Aborted == 0 {
		t.Errorf("measurement = %+v", m)
	}
	if m.Tps <= 0 {
		t.Error("tps must be positive")
	}
}

// TestDriveReportsMedianRound paces the three rounds of one window at
// three different rates and expects the middle one back.
func TestDriveReportsMedianRound(t *testing.T) {
	pace := []time.Duration{16 * time.Millisecond, 4 * time.Millisecond, time.Millisecond}
	start := time.Now()
	m := drive(1, 300*time.Millisecond, func(int) error {
		time.Sleep(pace[min(int(time.Since(start)/(100*time.Millisecond)), rounds-1)])
		return nil
	})
	if want := 1000.0 / 4; m.Tps < want/2 || m.Tps > want*2 {
		t.Errorf("median round = %.0f tps, want the ~%.0f tps round (4 ms pace)", m.Tps, want)
	}
}

func TestTablesRender(t *testing.T) {
	out := Table("T", []Measurement{{Label: "base", Tps: 100}, {Label: "half", Tps: 50}})
	for _, want := range []string{"T\n", "base", "1.00x", "half", "2.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table output lacks %q:\n%s", want, out)
		}
	}
	out = SeriesTable("S", "x", []string{"1", "2"}, map[string][]float64{"a": {1.5, 2.5}}, []string{"a"})
	for _, want := range []string{"S\n", "a", "1.50", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("SeriesTable output lacks %q:\n%s", want, out)
		}
	}
}
