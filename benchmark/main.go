// Command benchmark is Treaty's repeatable benchmark: four workloads over
// in-process clusters, end-to-end metrics from an untraced window and
// per-layer metrics from a traced window on the same cluster. README.md
// defines every metric, workload and bound.
//
// The driver's contract (BENCHMARK.json) is
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is one JSON object. Without
// --workload all four workloads run, each with both windows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig is one workload run's shape.
type runConfig struct {
	seed int64
	// window is the untraced measured window; traceWindow, when > 0, is
	// the traced window that follows it on the same cluster.
	window, traceWindow time.Duration
	// setups is how many times set-up runs; setup_s is their median and
	// the last one's cluster is measured.
	setups int
	// warmDiv divides the fixed warm-up counts (smoke test only).
	warmDiv int
	// scratch is a directory inside the checkout for the counter
	// replicas' state files, the only thing that touches the real disk.
	scratch string
}

// runResult is what one workload run reports.
type runResult struct {
	spec              workloadSpec
	endToEnd, layers  []metric
	attempted, failed int
	problems          []error // correctness violations; empty means correct
	spans             *spanLog
}

// runWorkload runs one workload: set-up(s), untraced window, optional
// traced window, read-back verification, stop.
func runWorkload(spec workloadSpec, cfg runConfig) (*runResult, error) {
	var r *rig
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, fmt.Errorf("%s: stopping set-up %d: %w", spec.name, i, err)
			}
		}
		dir, err := os.MkdirTemp(cfg.scratch, spec.name+"-")
		if err != nil {
			return nil, err
		}
		if r, err = setUp(spec, cfg.seed, dir, cfg.warmDiv); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, r.setupS)
	}

	res := &runResult{spec: spec}
	u := r.drive(cfg.window, 0, false)
	res.endToEnd = endToEnd(u, setupTimes)
	windows := []*window{u}
	if cfg.traceWindow > 0 {
		w := r.drive(cfg.traceWindow, 0, true)
		windows = append(windows, w)
		res.layers = layerMetrics(u, w)
		res.spans = w.spans
		if err := w.spans.check(); err != nil {
			res.problems = append(res.problems, err)
		}
	}
	for _, w := range windows {
		res.attempted += w.attempted
		res.failed += len(w.failures)
		res.problems = append(res.problems, w.violations...)
		if len(w.failures) > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d of %d transactions failed, first: %v\n", spec.name, len(w.failures), w.attempted, w.failures[0])
		}
	}
	verifyStart := time.Now()
	keys, err := r.verify()
	if err != nil {
		res.problems = append(res.problems, err)
	}
	fmt.Printf("# %s: set-ups %.2f s, read-back of %d written keys %.2f s\n", spec.name, setupTimes, keys, time.Since(verifyStart).Seconds())
	if err := r.stop(); err != nil {
		return nil, fmt.Errorf("%s: stop: %w", spec.name, err)
	}
	return res, nil
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics writes one line per metric: name, value, unit and, beside
// every percentile, its sample count.
func printMetrics(prefix string, ms []metric) {
	for _, m := range ms {
		if m.n > 0 {
			fmt.Printf("%s%-40s %14.6g %-7s n=%d\n", prefix, m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%s%-40s %14.6g %s\n", prefix, m.name, m.value, m.unit)
		}
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (dist-write, dist-read, dist-native, node-mixed); empty runs all four with both windows")
		seed         = flag.Int64("seed", 1, "seed of the operation generators")
		seconds      = flag.Int("seconds", 20, "measured seconds per run (with --trace 1: half untraced, half traced)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from an untraced window; 1: per-layer metrics from a traced window, then the layer probes")
		traceOut     = flag.String("trace-out", "", "write the traced window's client spans to this file as JSON lines")
		aa           = flag.Int("aa", 0, "A/A check: run every workload this many times as set A and as set B and compare the sets against the bounds")
	)
	flag.Parse()
	specs := workloads
	if spec, ok := findWorkload(*workloadName); ok {
		specs = []workloadSpec{spec}
	} else if *workloadName != "" {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds))
	}
	correct, err := run(specs, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if err != nil || !correct {
		os.Exit(1)
	}
}

// run executes the given workloads (one under the driver's contract, all
// four otherwise), prints their metrics and the result line, and reports
// whether every output was correct.
func run(specs []workloadSpec, seed int64, seconds time.Duration, traced bool, traceOut string) (correct bool, err error) {
	all := len(specs) > 1
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{seed: seed, window: seconds, setups: 3, warmDiv: 1, scratch: scratch}
	switch {
	case all:
		cfg.traceWindow = seconds / 2
	case traced:
		// One run measures for --seconds in total, and set-up time is an
		// end-to-end metric, so a traced run sets up once.
		cfg.window, cfg.traceWindow, cfg.setups = seconds/2, seconds-seconds/2, 1
	}
	fmt.Printf("# treaty benchmark: seed=%d untraced=%s traced=%s setups=%d nproc=%d GOMAXPROCS=%d\n",
		seed, cfg.window, cfg.traceWindow, cfg.setups, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Println("# link 5 GB/s with zero injected latency; node storage is MemFS: every Sync is issued and counted, device time is zero")

	rep := report{Correct: true, Metrics: make(map[string]metricValue)}
	emit := func(prefix string, ms []metric) {
		printMetrics(prefix, ms)
		for _, m := range ms {
			rep.Metrics[prefix+m.name] = metricValue{m.value, m.unit}
		}
	}
	for _, spec := range specs {
		res, err := runWorkload(spec, cfg)
		if err != nil {
			return false, err
		}
		prefix := ""
		if all {
			prefix = spec.name + "/"
		}
		fmt.Printf("## %s: %s\n", spec.name, spec.why)
		if all || !traced {
			emit(prefix, res.endToEnd)
		}
		emit(prefix, res.layers) // empty without a traced window
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		for _, p := range res.problems {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "%s: INCORRECT: %v\n", spec.name, p)
		}
		if traceOut != "" && res.spans != nil {
			path := traceOut
			if all {
				path = traceOut + "." + spec.name
			}
			if err := res.spans.writeTo(path, spec.name); err != nil {
				return false, err
			}
		}
	}
	if cfg.traceWindow > 0 {
		fmt.Println("## layer probes")
		probes, err := runProbes(scratch, 1)
		if err != nil {
			return false, err
		}
		emit("", probes)
	}

	line, err := json.Marshal(rep)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return rep.Correct, nil
}

// scratchRoot is where run-time files go: inside the checkout, in the
// directory .gitignore names.
const scratchRoot = ".bench_build"
