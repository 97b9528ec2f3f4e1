package treaty

// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§VIII), the one front end of internal/bench. Each benchmark
// runs the corresponding experiment harness at its own scale and logs the
// paper-style table; throughput is also exposed as benchmark metrics. Run
// all of them with:
//
//	go test -run '^$' -bench=. -benchmem -benchtime=1x
//
// or regenerate a single figure, e.g.:
//
//	go test -run '^$' -bench=BenchmarkFig5 -benchtime=1x

import (
	"testing"

	"treaty/internal/bench"
)

// runPanels measures the given panels of one bench.Experiments entry at
// the table's own scale and logs each paper-style table.
func runPanels(b *testing.B, experiment string, panels ...int) [][]bench.Measurement {
	b.Helper()
	for _, e := range bench.Experiments {
		if e.Name != experiment {
			continue
		}
		var out [][]bench.Measurement
		for i := 0; i < b.N; i++ {
			for _, p := range panels {
				ms, err := bench.Run(e.Panels[p])
				if err != nil {
					b.Fatal(err)
				}
				b.Log("\n" + bench.Table(e.Panels[p].Title, ms))
				reportVersions(b, ms)
				out = append(out, ms)
			}
		}
		return out
	}
	b.Fatalf("no experiment %q in bench.Experiments", experiment)
	return nil
}

// reportVersions exposes each version's throughput as a metric.
func reportVersions(b *testing.B, ms []bench.Measurement) {
	b.Helper()
	if len(ms) == 0 {
		return
	}
	base := ms[0]
	for _, m := range ms {
		b.ReportMetric(m.Tps, "tps:"+sanitize(m.Label))
		b.ReportMetric(m.Slowdown(base), "slowdown:"+sanitize(m.Label))
	}
}

// sanitize makes a label metric-safe.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkScaling runs the horizontal-scaling panel (beyond the paper):
// the same read-heavy offered load against 3, 5 and 9 nodes.
func BenchmarkScaling(b *testing.B) { runPanels(b, "scaling", 0) }

// BenchmarkFig4_TwoPCProtocol reproduces Figure 4: the 2PC protocol with
// no storage underneath, four arms, YCSB 50R/50W, at the harness's own
// scale (32 clients, 2 s per arm).
func BenchmarkFig4_TwoPCProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := bench.RunFig4(bench.Fig4Config{}, bench.NetArms())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + bench.PrintFig4(runs))
		ms := make([]bench.Measurement, len(runs))
		for i, r := range runs {
			ms[i] = r.Measurement
		}
		reportVersions(b, ms)
	}
}

// BenchmarkFig5_DistributedYCSB_WriteHeavy reproduces the 20%R panel of
// Figure 5.
func BenchmarkFig5_DistributedYCSB_WriteHeavy(b *testing.B) { runPanels(b, "fig5", 0) }

// BenchmarkFig5_DistributedYCSB_ReadHeavy reproduces the 80%R panel of
// Figure 5.
func BenchmarkFig5_DistributedYCSB_ReadHeavy(b *testing.B) { runPanels(b, "fig5", 1) }

// BenchmarkFig3_DistributedTPCC_10W reproduces the left panel of
// Figure 3 (TPC-C, 10 warehouses: heavy write-write conflicts).
func BenchmarkFig3_DistributedTPCC_10W(b *testing.B) { runPanels(b, "fig3", 0) }

// BenchmarkFig3_DistributedTPCC_100W reproduces the right panel of
// Figure 3 (TPC-C, 100 warehouses: fewer conflicts, lower overheads).
func BenchmarkFig3_DistributedTPCC_100W(b *testing.B) { runPanels(b, "fig3", 1) }

// BenchmarkFig6_SingleNodePessimistic_TPCC reproduces the TPC-C panel of
// Figure 6 (six versions, pessimistic transactions).
func BenchmarkFig6_SingleNodePessimistic_TPCC(b *testing.B) { runPanels(b, "fig6", 0) }

// BenchmarkFig6_SingleNodePessimistic_YCSB reproduces the YCSB panels of
// Figure 6 (20%R and 80%R).
func BenchmarkFig6_SingleNodePessimistic_YCSB(b *testing.B) { runPanels(b, "fig6", 1, 2) }

// BenchmarkFig7_SingleNodeOptimistic_TPCC reproduces the TPC-C panel of
// Figure 7 (optimistic transactions).
func BenchmarkFig7_SingleNodeOptimistic_TPCC(b *testing.B) { runPanels(b, "fig7", 0) }

// BenchmarkFig7_SingleNodeOptimistic_YCSB reproduces the YCSB panel of
// Figure 7 (the paper evaluates the read-heavy workload for OCC).
func BenchmarkFig7_SingleNodeOptimistic_YCSB(b *testing.B) { runPanels(b, "fig7", 1) }

// BenchmarkFig8_NetworkLibrary reproduces Figure 8: the four packet-path
// arms across message sizes 64 B–4 KiB, 150 ms per point (the harness's
// own).
func BenchmarkFig8_NetworkLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := bench.RunFig8(0)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + bench.PrintFig8(runs))
		for _, row := range runs {
			// Report the 1 KiB point as the summary metric.
			b.ReportMetric(row[2].Tps, "calls/s:"+sanitize(row[2].Label))
		}
	}
}

// BenchmarkTableI_Recovery reproduces Table I: recovery time of the
// three log security levels (the paper's full scale is 800 k entries;
// pass -short for a quick run).
func BenchmarkTableI_Recovery(b *testing.B) {
	entries := 200000
	if testing.Short() {
		entries = 20000
	}
	for i := 0; i < b.N; i++ {
		rs, err := bench.RunTableI(bench.RecoveryConfig{Entries: entries})
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + bench.PrintTableI(rs))
		base := rs[0].Duration
		for _, r := range rs {
			b.ReportMetric(float64(r.Duration)/float64(base), "slowdown:"+sanitize(r.Label))
		}
	}
}
