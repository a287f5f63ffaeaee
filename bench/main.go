// Command bench is the repository's benchmark: four seeded workloads
// run against the real kernel, each reporting end-to-end metrics on
// two clocks — simulated cycles, what the kernel design costs, and host
// time and memory, what the Go program costs — plus a traced mode that
// breaks the cost down layer by layer. See bench/README.md.
//
// With -workload it runs that one workload in this process and prints,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end ones, or with -trace the per-layer
// ones. Without -workload it runs every workload -runs times, each run
// in a fresh child process, and summarizes the runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"

	"multics/internal/lockrank"
)

func main() {
	var (
		name       = flag.String("workload", "", "run this one workload in this process; empty runs every workload in child processes")
		seed       = flag.Int64("seed", 1977, "seed of every generated input and schedule")
		seconds    = flag.Float64("seconds", 10, "host seconds the measured phase lasts, at least")
		traceMode  = flag.String("trace", "0", "0 untraced; 1 traced, printing the per-layer table; any other value traces and writes the spans to that file")
		runs       = flag.Int("runs", 1, "without -workload: runs of each workload, each in a fresh child process")
		jsonPath   = flag.String("json", "", "without -workload: write every run's result to this file")
		cpuProfile = flag.String("cpuprofile", "", "with -workload: write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "with -workload: write a heap profile to this file")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds}
	switch *traceMode {
	case "0":
	case "1":
		opt.traced = true
	default:
		opt.traced, opt.spans = true, *traceMode
	}
	var err error
	if *name != "" {
		err = runSingle(*name, opt, *cpuProfile, *memProfile)
	} else if *cpuProfile != "" || *memProfile != "" {
		err = errors.New("-cpuprofile and -memprofile need -workload")
	} else {
		err = runAll(opt, *traceMode, *runs, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose correctness checks failed; its
// result has been printed.
var errIncorrect = errors.New("correctness checks failed")

func runSingle(name string, opt options, cpuProfile, memProfile string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	// The lock-rank checker is a debug aid; the benchmark measures the
	// kernel as a release build would run it.
	lockrank.SetChecking(false)
	// One thread runs the driver and the executor's tasks, which hand a
	// single token between goroutines: on one P a hand-off is a
	// goroutine switch, not the wake-up of a second OS thread, and the
	// collector shares that thread instead of a second core. The host
	// figures then track the program's own work, and the run loads one
	// core of the host.
	runtime.GOMAXPROCS(1)
	stopProfile := func() error { return nil }
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	res, err := runWorkload(w, opt)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if memProfile != "" {
		if err := writeHeapProfile(memProfile); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res)
	if !res.correct() {
		return errIncorrect
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// A jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printResult(out io.Writer, r *result) {
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	status := "correct"
	if !r.correct() {
		status = "INCORRECT"
	}
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "%s seed %d (%s): %d ops, %d failed attempts, %s\n", r.workload, r.seed, mode, r.attempted, r.failed, status)
	for _, p := range r.problems {
		fmt.Fprintf(out, "    problem: %s\n", p)
	}
	fmt.Fprintln(out, "  end to end:")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "    %-36s %16.4f %s\n", m.name, r.e2e[m.name], m.unit)
		if !r.traced {
			line.Metrics[m.name] = jsonMetric{r.e2e[m.name], m.unit}
		}
	}
	if r.traced {
		fmt.Fprintln(out, "  per layer (counts and cycles over the sim batches, host ns over the whole phase):")
		for _, m := range perLayer {
			fmt.Fprintf(out, "    %-36s %16.4f %s\n", m.name, r.layers[m.name], m.unit)
			line.Metrics[m.name] = jsonMetric{r.layers[m.name], m.unit}
		}
		fmt.Fprintf(out, "  harness self time %.0f ns per op (bench.op)\n", r.harnessNsPerOp)
		fmt.Fprintf(out, "  tracing overhead: untraced %.1f ops/s, traced %.1f ops/s (x%.2f)\n",
			r.untracedOpsPerSec, r.e2e["host_ops_per_s"], r.untracedOpsPerSec/r.e2e["host_ops_per_s"])
		fmt.Fprintf(out, "  spans kept %d, dropped %d\n", r.spansKept, r.spansDropped)
	}
	b, err := json.Marshal(line)
	if err != nil {
		// Every value is a finite float and every key a string.
		panic(err)
	}
	fmt.Fprintln(out, string(b))
}

// A childRun is one child process's run, as the -json file records it.
type childRun struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Result   resultLine `json:"result"`
}

// runAll runs every workload runs times, each run in a fresh child
// process so no heap or GC state carries over, with seeds seed,
// seed+1, ... With one run it prints each child's report; with more it
// prints each metric's median, quartiles and spread.
func runAll(opt options, traceMode string, runs int, jsonPath string) error {
	if opt.spans != "" && runs > 1 {
		return errors.New("a span file needs -runs 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	var all []childRun
	failed := 0
	for _, w := range workloads {
		var lines []resultLine
		for r := 0; r < runs; r++ {
			seed := opt.seed + int64(r)
			mode := traceMode
			if opt.spans != "" {
				mode = opt.spans + "." + w.name
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", mode)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			if runs == 1 {
				os.Stdout.Write(stdout.Bytes())
			}
			line, perr := lastResult(stdout.Bytes())
			if runErr != nil || perr != nil {
				failed++
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed: %v %v\n", w.name, seed, runErr, perr)
				continue
			}
			lines = append(lines, line)
			all = append(all, childRun{Workload: w.name, Seed: seed, Result: line})
		}
		if runs > 1 {
			summarize(os.Stdout, w.name, lines, bounds)
		}
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(map[string]any{"runs": all}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// lastResult parses the result line a child printed last.
func lastResult(out []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// summarize prints each metric's median, quartiles and spread — the
// distance between the quartiles as a share of the median — across
// runs, next to the metric's bound when BENCHMARK.json gives one.
func summarize(out io.Writer, workload string, lines []resultLine, bounds map[string]float64) {
	fmt.Fprintf(out, "%s: %d runs\n", workload, len(lines))
	if len(lines) == 0 {
		return
	}
	fmt.Fprintf(out, "    %-36s %16s %16s %16s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	specs := append([]metricSpec(nil), endToEnd...)
	for _, m := range perLayer {
		specs = append(specs, m.metricSpec)
	}
	for _, m := range specs {
		var vals []float64
		for _, l := range lines {
			if v, ok := l.Metrics[m.name]; ok {
				vals = append(vals, v.Value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound, flag := "", ""
		if b, ok := bounds[m.name]; ok {
			bound = fmt.Sprintf("%.2f", b)
			if spread > b {
				flag = "  WIDER THAN BOUND"
			}
		}
		fmt.Fprintf(out, "    %-36s %16.4f %16.4f %16.4f %8.4f %6s%s\n", m.name, q1, med, q3, spread, bound, flag)
	}
}

// A benchmarkFile is the part of BENCHMARK.json the summary reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBounds returns each end-to-end metric's bound from the
// BENCHMARK.json at path, or none when it cannot be read (a run from
// outside the checkout root).
func readBounds(path string) map[string]float64 {
	bounds := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return bounds
	}
	var f benchmarkFile
	if json.Unmarshal(b, &f) != nil {
		return bounds
	}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}
