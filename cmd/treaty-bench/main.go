// Command treaty-bench regenerates the paper's evaluation (§VIII): every
// figure and table, printed in the paper's structure. By default it runs
// everything; -exp selects one experiment (-h lists the names, which come
// from bench.Experiments and the few experiments below that measure
// something other than a cluster).
//
// Usage:
//
//	treaty-bench [-exp all|<name>] [-duration D] [-clients N]
//	             [-entries 200000] [-metrics out.json]
//
// Without -duration and -clients every experiment runs at its own scale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"treaty/internal/bench"
)

// experiment is one -exp name and what it runs.
type experiment struct {
	name string
	run  func() error
}

// show prints a finished experiment through its renderer.
func show[T any](render func(T) string) func(T, error) error {
	return func(v T, err error) error {
		if err == nil {
			fmt.Print(render(v))
		}
		return err
	}
}

func main() {
	log.SetFlags(0)
	duration := flag.Duration("duration", 0, "measurement window per version (0 = the experiment's own)")
	clients := flag.Int("clients", 0, "concurrent clients (0 = the experiment's own)")
	entries := flag.Int("entries", 200000, "log entries for the recovery experiment (paper: 800000)")
	metricsOut := flag.String("metrics", "", "write machine-readable per-run metrics reports (JSON) to this file")

	var reports []bench.Measurement
	var exps []experiment
	for _, e := range bench.Experiments {
		exps = append(exps, experiment{e.Name, func() error {
			for _, s := range e.Panels {
				if *duration > 0 {
					s.Window = *duration
				}
				if *clients > 0 {
					s.Clients = *clients
				}
				ms, err := bench.Run(s)
				if err != nil {
					return err
				}
				fmt.Print(bench.Table(s.Title, ms))
				reports = append(reports, ms...)
			}
			return nil
		}})
	}
	// Not clusters under a workload: the protocol skeleton with no
	// storage, the iperf stacks, a cold reopen, raw engine reads.
	exps = append(exps,
		experiment{"fig4", func() error {
			return show(bench.PrintFig4)(bench.RunFig4(bench.Fig4Config{Clients: *clients, Duration: *duration}, bench.Fig4Versions()))
		}},
		experiment{"fig8", func() error { return show(bench.PrintFig8)(bench.RunFig8(*duration / 10)) }},
		experiment{"table1", func() error {
			return show(bench.PrintTableI)(bench.RunTableI(bench.RecoveryConfig{Entries: *entries}))
		}},
		experiment{"blockcache", func() error {
			return show(bench.PrintBlockCache)(bench.RunBlockCacheAblation(bench.BlockCacheConfig{}))
		}},
	)
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	fmt.Println("Treaty evaluation harness — reproducing DSN'22 Figures 3-8 and Table I")
	fmt.Println("(absolute numbers are from the in-process simulated testbed; compare shapes)")
	fmt.Println()
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Printf("  [%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *metricsOut != "" {
		js, err := bench.ReportJSON(reports)
		if err != nil {
			log.Fatalf("metrics report: %v", err)
		}
		if err := os.WriteFile(*metricsOut, js, 0o644); err != nil {
			log.Fatalf("metrics report: %v", err)
		}
		fmt.Printf("wrote metrics reports to %s\n", *metricsOut)
	}
}
