package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// bound is one end-to-end metric's regression bound: the share of the
// reference median by which the metric may get worse. BENCHMARK.json
// carries the same table for the driver; the smoke test keeps them equal.
type bound struct {
	name, unit   string
	higherBetter bool
	share        float64
}

var endToEndBounds = []bound{
	{"tps", "1/s", true, 0.25},
	{"txn_ms_p50", "ms", false, 0.25},
	{"txn_ms_p90", "ms", false, 0.25},
	{"commit_ms_p50", "ms", false, 0.25},
	{"committed_share", "share", true, 0.005},
	{"setup_s", "s", false, 0.25},
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runChild runs this binary once under the driver's contract and returns
// the metrics of its result line.
func runChild(workload string, seed, seconds int) (report, error) {
	var rep report
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("%s seed %d: outputs incorrect", workload, seed)
	}
	return rep, nil
}

// runAA runs every workload n times as set A and n times as set B, each
// run a fresh process with its own seed, exactly as the driver does, and
// prints per cell both medians, both quartile ranges as a share of their
// median, and how much worse B's median is than A's against the bound. A
// cell fails when that difference, or (except for setup_s, whose spread
// the driver does not judge) either spread, exceeds the bound.
func runAA(n, seconds int) int {
	start := time.Now()
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	var attempted, failedTxns [2]int
	seed := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			values[set][w.name] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				seed++
				rep, err := runChild(w.name, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				attempted[set] += rep.Attempted
				failedTxns[set] += rep.Failed
				for name, m := range rep.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c %s seed %d: tps %.1f, %d of %d failed (%.0f s elapsed)\n",
					'A'+set, w.name, seed, rep.Metrics["tps"].Value, rep.Failed, rep.Attempted, time.Since(start).Seconds())
			}
		}
	}

	fmt.Printf("# A/A: two sets of %d runs of the same code\n\n", n)
	fmt.Printf("`%d` runs per set and workload, `--seconds %d`, every run a fresh process with its own seed (A: 1-%d, B: %d-%d), %s in all.\n",
		n, seconds, n*len(workloads), n*len(workloads)+1, 2*n*len(workloads), time.Since(start).Round(time.Second))
	fmt.Printf("Transactions failed: %d of %d in set A, %d of %d in set B.\n", failedTxns[0], attempted[0], failedTxns[1], attempted[1])
	fmt.Println("Spread is the distance between the first and third quartile (Python's `statistics.quantiles(v, n=4)`) as a share of the median.")
	fmt.Println("`B worse by` is how far B's median is on the worse side of A's, as a share of A's; negative means B was better.")
	fmt.Println()
	fmt.Println("| workload | metric | unit | median A | spread A | median B | spread B | B worse by | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, w := range workloads {
		for _, b := range endToEndBounds {
			a1, am, a3 := quartiles(values[0][w.name][b.name])
			b1, bm, b3 := quartiles(values[1][w.name][b.name])
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			worse := (bm - am) / am
			if b.higherBetter {
				worse = -worse
			}
			verdict := "ok"
			if worse > b.share || b.name != "setup_s" && math.Max(spreadA, spreadB) > b.share {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.2f%% | %.5g | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				w.name, b.name, b.unit, am, 100*spreadA, bm, 100*spreadB, 100*worse, 100*b.share, verdict)
		}
	}
	fmt.Print("\n## Every run\n\n")
	for _, w := range workloads {
		for _, b := range endToEndBounds {
			fmt.Printf("- `%s/%s` A: %.5g\n", w.name, b.name, values[0][w.name][b.name])
			fmt.Printf("- `%s/%s` B: %.5g\n", w.name, b.name, values[1][w.name][b.name])
		}
	}
	fmt.Println()
	if failed > 0 {
		fmt.Printf("%d cells disagree by more than their bound.\n", failed)
		return 1
	}
	fmt.Println("Every cell agrees within its bound.")
	return 0
}
