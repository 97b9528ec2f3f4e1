package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"treaty/internal/lsm"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smokeConfig is the shrunken run shape: 1 s untraced, 0.5 s traced,
// warm-up counts divided by 20.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 7, window: time.Second, traceWindow: 500 * time.Millisecond, setups: 1, warmDiv: 20, scratch: t.TempDir()}
}

// checkEmitted fails unless got holds every declared metric exactly once,
// with its declared unit, and nothing else.
func checkEmitted(t *testing.T, what string, got []metric, want map[string]string) map[string]metric {
	t.Helper()
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		if _, dup := byName[m.name]; dup {
			t.Errorf("%s: metric %s emitted twice", what, m.name)
		}
		byName[m.name] = m
		switch unit, ok := want[m.name]; {
		case !ok:
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, m.name)
		case unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.name, m.unit, unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: metric %s is %v", what, m.name, m.value)
		}
	}
	for name := range want {
		if _, ok := byName[name]; !ok {
			t.Errorf("%s: metric %s of BENCHMARK.json was not emitted", what, name)
		}
	}
	return byName
}

// TestContract runs every workload in its smoke shape and checks the
// output against BENCHMARK.json and the issue's invariants.
func TestContract(t *testing.T) {
	c := readContract(t)

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	endToEndUnits := make(map[string]string)
	for i, m := range c.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
		b := endToEndBounds[i]
		better := map[bool]string{true: "higher", false: "lower"}[b.higherBetter]
		if m.Name != b.name || m.Bound != b.share || m.Better != better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the benchmark has %+v", i, m, b)
		}
	}
	layerUnits, probeUnits := make(map[string]string), make(map[string]string)
	for _, m := range c.PerLayer {
		if strings.HasPrefix(m.Name, "probe.") {
			probeUnits[m.Name] = m.Unit
		} else {
			layerUnits[m.Name] = m.Unit
		}
	}

	for _, spec := range workloads {
		res, err := runWorkload(spec, smokeConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.problems {
			t.Errorf("%s: %v", spec.name, p)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d transactions failed", spec.name, res.failed, res.attempted)
		}
		e2e := checkEmitted(t, spec.name, res.endToEnd, endToEndUnits)
		layers := checkEmitted(t, spec.name, res.layers, layerUnits)

		for _, name := range []string{"txn_ms_p50", "txn_ms_p90", "commit_ms_p50"} {
			if e2e[name].n == 0 || e2e[name].value <= 0 {
				t.Errorf("%s: %s = %v with %d samples", spec.name, name, e2e[name].value, e2e[name].n)
			}
		}
		for name, m := range layers {
			percentile := strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p99")
			if percentile && m.value != 0 && m.n == 0 {
				t.Errorf("%s: percentile %s has no sample count", spec.name, name)
			}
		}
		if layers["client.txn_ms_p99"].n == 0 {
			t.Errorf("%s: the traced window recorded no transaction spans", spec.name)
		}
		if v := layers["client.self_ms_p50"].value; v < 0 {
			t.Errorf("%s: client.self_ms_p50 = %v, want >= 0", spec.name, v)
		}

		// Spans: children inside their parent, one trace id per transaction.
		if err := res.spans.check(); err != nil {
			t.Errorf("%s: %v", spec.name, err)
		}
		roots := make(map[uint64]bool)
		for _, s := range res.spans.spans {
			if s.parent < 0 {
				if roots[s.trace] {
					t.Errorf("%s: trace id %d names two transactions", spec.name, s.trace)
				}
				roots[s.trace] = true
			}
		}
		if len(roots) != layers["client.txn_ms_p99"].n {
			t.Errorf("%s: %d trace ids for %d traced transactions", spec.name, len(roots), layers["client.txn_ms_p99"].n)
		}

		switch spec.name {
		case "dist-write":
			if layers["vfs.syncs_per_txn"].value <= 0 || layers["counter.rounds_per_txn"].value <= 0 {
				t.Errorf("dist-write: vfs.syncs_per_txn = %v, counter.rounds_per_txn = %v, want both > 0",
					layers["vfs.syncs_per_txn"].value, layers["counter.rounds_per_txn"].value)
			}
			if layers["twopc.stage_prepare_ms_p50"].n == 0 {
				t.Error("dist-write: no coordinator stage traces were harvested")
			}
		case "dist-native":
			if v := layers["counter.rounds_per_txn"].value; v != 0 {
				t.Errorf("dist-native: counter.rounds_per_txn = %v, want 0", v)
			}
		case "node-mixed":
			if v := layers["erpc.requests_per_txn"].value; v != 0 {
				t.Errorf("node-mixed: erpc.requests_per_txn = %v, want 0 (the op path is bypassed)", v)
			}
		}
	}

	probes, err := runProbes(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range checkEmitted(t, "probes", probes, probeUnits) {
		if !strings.HasSuffix(name, "_allocs") && m.value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.value)
		}
	}
}

// TestCorruptedReadBackFails overwrites one written key behind the
// driver's back and expects the read-back to name it.
func TestCorruptedReadBackFails(t *testing.T) {
	spec, _ := findWorkload("dist-native")
	r, err := setUp(spec, 3, t.TempDir(), 20)
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	w := r.drive(300*time.Millisecond, 0, false)
	if err := w.firstProblem(); err != nil {
		t.Fatal(err)
	}
	if n, err := r.verify(); err != nil || n == 0 {
		t.Fatalf("clean read-back: %d keys, %v", n, err)
	}

	var key string
	var seq uint64
	for key, seq = range r.clients[0].lastWrite {
		break
	}
	value := make([]byte, valueSize)
	stampTag(value, tag{writer: 0, seq: seq + 1}) // a transaction that never committed
	b := lsm.NewBatch()
	b.Put([]byte(key), value)
	owner := r.cluster.Node(0).Shard().View().Owner([]byte(key))
	for i := 0; i < r.cluster.Nodes(); i++ {
		if n := r.cluster.Node(i); n.Addr() == owner {
			if _, _, err := n.DB().Apply(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.verify(); err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("read-back after corrupting %q: %v, want an error naming the key", key, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestClassify(t *testing.T) {
	for name, want := range map[string]fileClass{
		"/x/node-0/wal-000003.log":       classWAL,
		"/x/node-0/CLOG-000001":          classClog,
		"/x/node-0/sst-000012.sst":       classSST,
		"/x/node-0/MANIFEST-000001":      classManifest,
		"/x/node-0/counters/CLOG-000001": classCounter,
		"/x/node-0/counters/wal.tmp":     classCounter,
		"/x/node-0/repl/p1-s1.mirror":    classOther,
	} {
		if got := classify(name); got != want {
			t.Errorf("classify(%q) = %s, want %s", name, classNames[got], classNames[want])
		}
	}
}
