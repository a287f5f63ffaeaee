package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"multics/internal/lockrank"
)

func TestMain(m *testing.M) {
	lockrank.SetChecking(false)
	os.Exit(m.Run())
}

// tinyRun runs a workload at the test size with no time floor, so the
// measured phase is exactly its sim batches.
func tinyRun(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, options{seed: seed, traced: traced, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("%s seed %d: %v", w.name, seed, res.problems)
	}
	return res
}

// hostMeasured reports whether a metric reads the host clock or host
// memory, and so moves from run to run.
func hostMeasured(name string) bool {
	return strings.HasPrefix(name, "host_") || name == "setup_s" ||
		strings.Contains(name, ".host_") || strings.HasPrefix(name, "runtime.")
}

func TestWorkloadsRepeatAndTracingIsFree(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, 7, false)
			traced := tinyRun(t, w, 7, true)
			again := tinyRun(t, w, 7, true)
			for _, m := range endToEnd {
				if hostMeasured(m.name) {
					continue
				}
				if traced.e2e[m.name] != plain.e2e[m.name] {
					t.Errorf("%s: traced %v, untraced %v: tracing moved the design's cost", m.name, traced.e2e[m.name], plain.e2e[m.name])
				}
				if again.e2e[m.name] != traced.e2e[m.name] {
					t.Errorf("%s: %v then %v for the same seed", m.name, traced.e2e[m.name], again.e2e[m.name])
				}
			}
			for _, m := range perLayer {
				if !hostMeasured(m.name) && again.layers[m.name] != traced.layers[m.name] {
					t.Errorf("%s: %v then %v for the same seed", m.name, traced.layers[m.name], again.layers[m.name])
				}
			}
			if plain.attempted == 0 || plain.e2e["sim_cycles_per_op"] == 0 {
				t.Errorf("no work measured: %d ops, %v cycles/op", plain.attempted, plain.e2e["sim_cycles_per_op"])
			}
			checkPrinted(t, plain, endToEnd)
			var specs []metricSpec
			for _, m := range perLayer {
				specs = append(specs, m.metricSpec)
			}
			checkPrinted(t, traced, specs)
		})
	}
}

// checkPrinted checks that the result line names every metric with its
// unit.
func checkPrinted(t *testing.T, r *result, want []metricSpec) {
	t.Helper()
	var out bytes.Buffer
	printResult(&out, r)
	line, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != r.attempted || len(line.Metrics) != len(want) {
		t.Errorf("result line: correct %v, attempted %d, %d metrics; want %d metrics", line.Correct, line.Attempted, len(line.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := line.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("metric %s printed as %+v (present %v), want unit %s", m.name, got, ok, m.unit)
		}
	}
}

// inputs renders what a seed generated for a workload's instance.
func inputs(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	inst, err := w.setup(&harness{}, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	switch x := inst.(type) {
	case *loginChurn:
		return fmt.Sprint(x.owner, x.idle)
	case *pagingMix:
		return fmt.Sprint(x.offs, x.vals)
	case *seqScan:
		return fmt.Sprint(x.offs, x.vals)
	case *terminalMix:
		return fmt.Sprint(x.remote, x.step)
	}
	t.Fatalf("%s: unknown instance %T", w.name, inst)
	return ""
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		a := inputs(t, w, 1)
		if a != inputs(t, w, 1) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if a == inputs(t, w, 2) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the metrics and
// workloads this program reports.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why == "" {
			t.Errorf("workload %d: %+v, want %s", i, f.Workloads[i], w.name)
		}
	}
	match := func(kind string, got []spec, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
		}
	}
	match("end_to_end", f.EndToEnd, endToEnd, true)
	var layers []metricSpec
	for _, m := range perLayer {
		layers = append(layers, m.metricSpec)
	}
	match("per_layer", f.PerLayer, layers, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) and statistics.median.
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	l := newLatencies()
	for v := int64(1); v <= 100; v++ {
		l.add(v)
	}
	for i := 0; i < 100; i++ {
		l.add(7)
	}
	// 200 samples: ranks 1-6 are 1..6, ranks 7-107 are 7, ranks
	// 108-200 are 8..100.
	if got := l.percentile(50); got != 7 {
		t.Errorf("p50 = %d, want 7", got)
	}
	if got := l.percentile(99); got != 98 {
		t.Errorf("p99 = %d, want 98", got)
	}
}

func TestMakespanCountsDriverWorkOnProcessorZero(t *testing.T) {
	a := reading{total: []int64{0}, cpu: [][]int64{{0, 0}}, dev: [][]int64{{0}}}
	// 100 cycles on cpu0, 300 on cpu1, 250 on the pack, and 200 the
	// driver charged to no processor.
	b := reading{total: []int64{850}, cpu: [][]int64{{100, 300}}, dev: [][]int64{{250}}}
	busiest, device := makespan(a, b)
	if busiest != 300 || device != 250 {
		t.Errorf("makespan %d, busiest device %d; want 300 (cpu0 100+200 ties cpu1), 250", busiest, device)
	}
	b.total[0] = 950 // the driver's share grows to 300: cpu0 holds 400
	if busiest, _ = makespan(a, b); busiest != 400 {
		t.Errorf("makespan %d, want 400", busiest)
	}
}
