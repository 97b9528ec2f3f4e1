package bench

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The shape tests run each experiment at miniature scale and assert
// structural properties (right versions, sane numbers) plus the most
// robust shape properties (native faster than SCONE, UDP zero over MTU),
// always on round medians. They time wall-clock windows, so -short (the
// race-detector pass) skips them. Full-scale runs live in the
// repository-root benchmarks.

func skipTimed(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("times wall-clock windows")
	}
}

// TestExperimentsShape smokes every panel of every experiment in the
// table: arm count, labels and order as declared, every arm committed, a
// metrics report that accounts for the commits, and the ordering the
// panel declares.
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
// Every panel stores to memory: windows this short keep the Clog small,
// and the declared orderings then rest on what the versions compute, not
// on how long this host's disk took over an fsync.
func miniature(s Spec) Spec {
	s.Clients = 4
	s.Window = s.Window / 20 * rounds
	s.Warehouses = min(s.Warehouses, s.Clients)
	s.MemFS = true
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
			t.Errorf("%s: %s committed nothing (%+v)", s.Title, m.Label, m)
		}
		if m.Metrics == nil || len(m.Metrics.Nodes) != s.Arms[i].Nodes {
			t.Errorf("%s: %s: metrics report missing or not one digest per node", s.Title, m.Label)
			continue
		}
		var committed, walAppends uint64
		for _, d := range m.Metrics.Nodes {
			committed += d.TxCommitted
			walAppends += d.WALAppends
		}
		if walAppends == 0 {
			t.Errorf("%s: %s: digests saw no WAL appends", s.Title, m.Label)
		}
		if s.Txn != Distributed {
			continue // local transactions never reach a coordinator
		}
		// The coordinators' since-boot commits cover at least the
		// reported (median) round's.
		if committed < m.Committed {
			t.Errorf("%s: %s: digest commits %d < measured commits %d", s.Title, m.Label, committed, m.Committed)
		}
		if _, ok := m.Metrics.Nodes["node-0"].Stages["commit"]; !ok {
			t.Errorf("%s: %s: node-0 digest missing commit-stage latency", s.Title, m.Label)
		}
	}
	for i := s.SlowerFrom; s.SlowerFrom > 0 && i < len(ms); i++ {
		if ms[i].Tps >= ms[0].Tps {
			t.Errorf("%s: %s (%.0f tps) should be slower than %s (%.0f tps)",
				s.Title, ms[i].Label, ms[i].Tps, ms[0].Label, ms[0].Tps)
		}
	}
	if js, err := ReportJSON(ms); err != nil || len(js) == 0 {
		t.Errorf("%s: ReportJSON: %v (%d bytes)", s.Title, err, len(js))
	}
}

func TestFig4Shape(t *testing.T) {
	skipTimed(t)
	ms, err := RunFig4(Fig4Config{Clients: 8, Duration: 300 * time.Millisecond}, Fig4Versions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("versions = %d, want 4", len(ms))
	}
	if ms[0].Label != "Native 2PC" || ms[3].Label != "Secure w/ Enc" {
		t.Errorf("labels = %v, %v", ms[0].Label, ms[3].Label)
	}
	for _, m := range ms {
		if m.Tps <= 0 {
			t.Errorf("%s: zero throughput", m.Label)
		}
	}
	// SCONE versions must be slower than native.
	if ms[2].Tps >= ms[0].Tps {
		t.Errorf("Secure w/o Enc (%.0f tps) should be slower than Native (%.0f tps)", ms[2].Tps, ms[0].Tps)
	}
	out := PrintFig4(ms)
	if !strings.Contains(out, "Figure 4") {
		t.Error("printout missing title")
	}
}

func TestFig8Shape(t *testing.T) {
	skipTimed(t)
	series, err := RunFig8(80 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 7 {
		t.Fatalf("systems = %d, want 7", len(series))
	}
	sizes := Fig8Sizes()
	udp := series["iPerf UDP"]
	for i, size := range sizes {
		if size > 1460 && udp[i] != 0 {
			t.Errorf("UDP at %dB = %.2f Gb/s, want 0 (over MTU)", size, udp[i])
		}
	}
	// The shape assertions use the 4 KiB point, where the modelled gaps
	// are widest (per-segment and per-copy costs scale with size); the
	// mid-size points are too close to assert reliably in short windows.
	last := len(sizes) - 1
	// SCONE TCP slower than native TCP.
	tcp, tcpScone := series["iPerf TCP"], series["iPerf TCP (Scone)"]
	if tcpScone[last] >= tcp[last] {
		t.Errorf("TCP scone (%.2f) should be slower than native (%.2f)", tcpScone[last], tcp[last])
	}
	// eRPC in SCONE faster than TCP in SCONE (fewer copies, no syscalls).
	erpcScone := series["eRPC (Scone)"]
	if erpcScone[last] <= tcpScone[last] {
		t.Errorf("eRPC scone (%.2f) should beat TCP scone (%.2f)", erpcScone[last], tcpScone[last])
	}
	t.Log("\n" + PrintFig8(series))
}

func TestTableIShape(t *testing.T) {
	skipTimed(t)
	rs, err := RunTableI(RecoveryConfig{Entries: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("versions = %d, want 3", len(rs))
	}
	if rs[0].Label != "Native recovery" {
		t.Errorf("baseline = %s", rs[0].Label)
	}
	// Encrypted recovery must be slower than native.
	if rs[2].Duration <= rs[0].Duration {
		t.Errorf("encrypted recovery (%v) should exceed native (%v)", rs[2].Duration, rs[0].Duration)
	}
	// Encrypted logs are bigger than plaintext logs.
	if rs[2].LogBytes <= rs[0].LogBytes {
		t.Errorf("encrypted logs (%d) should exceed native (%d)", rs[2].LogBytes, rs[0].LogBytes)
	}
	t.Log("\n" + PrintTableI(rs))
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
