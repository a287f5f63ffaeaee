package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"multics/internal/audit"
)

const (
	// An untraced run sets its workload up at least minSetups times,
	// and more while the set-ups so far total under setupBudget, up to
	// maxSetups; setup_s is the median, so one slow set-up does not
	// move it and a fast set-up is sampled often enough to be steady.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
	// sliceDur is the host time one throughput sample covers, and
	// host_ops_per_s is the samplePercentile-th percentile sample. On a
	// shared machine other tenants' load only ever slows a slice, in
	// bursts of up to seconds; the upper percentile tracks the
	// program's own speed through them, where the median and the mean
	// move with the neighbors.
	sliceDur         = 50 * time.Millisecond
	samplePercentile = 90
	// spanCapacity bounds the spans kept for the span file.
	spanCapacity = 1 << 16
)

type options struct {
	seed    int64
	seconds float64
	traced  bool
	// spans names the file the traced run writes its spans to; empty
	// keeps them in memory only.
	spans string
	tiny  bool
}

// A phase is one measured phase: readings at its start (a), after the
// sim batches (b) and at its end (c), and what happened in between.
type phase struct {
	ops, simOps int64
	opsPerSec   float64
	a, b, c     reading
	simAgg      [numSpans]spanAgg
}

// measure runs batches until the first sims have run and seconds of
// host time have passed, whichever is later. The sim batches' op
// latencies are left in h.lat.
func measure(inst instance, h *harness, seconds float64, sims int) (*phase, error) {
	p := &phase{}
	h.lat = newLatencies()
	h.recording = true
	p.a = read(inst, h)
	var samples []float64
	var sliceNs time.Duration
	var sliceOps int64
	start := time.Now()
	for b := 0; ; b++ {
		if b == sims {
			h.recording = false
			p.simOps = p.ops
			p.b = read(inst, h)
			if h.tr != nil {
				p.simAgg = h.tr.agg
			}
		}
		if b >= sims && time.Since(start).Seconds() >= seconds {
			break
		}
		t0 := time.Now()
		n, err := inst.batch()
		d := time.Since(t0)
		p.ops += int64(n)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		sliceNs += d
		sliceOps += int64(n)
		if sliceNs >= sliceDur {
			samples = append(samples, float64(sliceOps)/sliceNs.Seconds())
			sliceNs, sliceOps = 0, 0
		}
	}
	elapsed := time.Since(start)
	p.c = read(inst, h)
	if len(samples) == 0 {
		p.opsPerSec = float64(p.ops) / elapsed.Seconds()
	} else {
		sort.Float64s(samples)
		p.opsPerSec = samples[(len(samples)-1)*samplePercentile/100]
	}
	return p, nil
}

// A result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int64
	failed    int64
	problems  []string
	e2e       map[string]float64
	layers    map[string]float64
	// Traced runs only: the untraced reference throughput, the harness's
	// own self time per op, and the spans kept and dropped.
	untracedOpsPerSec float64
	harnessNsPerOp    float64
	spansKept         int
	spansDropped      int64
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// runWorkload runs one workload once. An untraced run sets up several
// times and measures for opt.seconds. A traced run first measures an
// untraced instance for half the time, for the tracing overhead, then
// a traced one — kernel meters on, spans around every layer call — for
// the other half, and reports the per-layer figures.
func runWorkload(w *workload, opt options) (*result, error) {
	res := &result{workload: w.name, seed: opt.seed, traced: opt.traced}
	var setupTimes []float64
	var inst instance
	var h *harness
	setup := func(traceKernel bool) error {
		inst, h = nil, &harness{traceKernel: traceKernel}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(h, opt.seed, opt.tiny)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runtime.GC()
		return nil
	}

	seconds := opt.seconds
	if opt.traced {
		if err := setup(false); err != nil {
			return nil, err
		}
		ref, err := measure(inst, h, seconds/2, 0)
		if err != nil {
			return nil, fmt.Errorf("%s untraced reference: %w", w.name, err)
		}
		res.untracedOpsPerSec = ref.opsPerSec
		if err := setup(true); err != nil {
			return nil, err
		}
		h.tr = newTracer(clockOf(inst), spanCapacity)
		seconds /= 2
	} else {
		var total float64
		for len(setupTimes) < minSetups || (len(setupTimes) < maxSetups && total < setupBudget.Seconds()) {
			if err := setup(false); err != nil {
				return nil, err
			}
			total += setupTimes[len(setupTimes)-1]
		}
	}
	p, err := measure(inst, h, seconds, inst.simBatches())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	if err := inst.check(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	for i, k := range inst.kernels() {
		for _, f := range audit.Run(k).Findings {
			res.problems = append(res.problems, fmt.Sprintf("kernel %d audit: %v", i, f))
		}
	}
	res.attempted = p.ops
	res.failed = p.c.counters["failed"] - p.a.counters["failed"]

	// The peak heap is the larger live heap, read just after a
	// collection, of two instants: set-up done (set-up ends with a
	// collection) and the measured phase done. That is what the kernel
	// and the workload retain; the heap the runtime reserves around it
	// moves with the collector's pacing.
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	runtime.KeepAlive(inst)
	peakHeap := max(p.a.mem.HeapAlloc, end.HeapAlloc)
	makespan, busiestDevice := makespan(p.a, p.b)
	res.e2e = map[string]float64{
		"setup_s":                 median(setupTimes),
		"host_ops_per_s":          p.opsPerSec,
		"host_alloc_bytes_per_op": ratio(int64(p.c.mem.TotalAlloc-p.a.mem.TotalAlloc), p.ops),
		"host_peak_heap_mb":       float64(peakHeap) / (1 << 20),
		"sim_cycles_per_op":       ratio(sum(p.b.total)-sum(p.a.total), p.simOps),
		"sim_op_p50_cycles":       float64(h.lat.percentile(50)),
		"sim_op_p99_cycles":       float64(h.lat.percentile(99)),
		"sim_makespan_cycles":     float64(makespan),
	}
	if h.tr != nil {
		in := &layerInput{
			sim:           delta(p.a.counters, p.b.counters),
			full:          delta(p.a.counters, p.c.counters),
			gauges:        p.c.gauges,
			simAgg:        p.simAgg,
			agg:           h.tr.agg,
			simOps:        p.simOps,
			busiestDevice: busiestDevice,
		}
		res.layers = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			res.layers[m.name] = m.value(in)
		}
		res.harnessNsPerOp = ratio(h.tr.agg[spOp].hostNs, h.tr.agg[spOp].calls)
		res.spansKept, res.spansDropped = len(h.tr.buf), h.tr.dropped
		if opt.spans != "" {
			if err := h.tr.writeSpans(opt.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// clockOf is the workload's global simulated clock: the sum of its
// kernels' meters. The driver is one thread, so the kernels never run
// at once and the sum is a single timeline.
func clockOf(inst instance) func() int64 {
	ks := inst.kernels()
	return func() int64 {
		var c int64
		for _, k := range ks {
			c += k.Meter.Cycles()
		}
		return c
	}
}

// makespan is the busiest simulated resource between two readings:
// any processor's account or any pack's device account, in any kernel.
// Work the driver does outside the sim executor is bound to no
// processor; it is counted on processor 0, whose processor the driver
// issues its calls on. It also returns the busiest device alone.
func makespan(a, b reading) (busiest, busiestDevice int64) {
	for ki := range b.total {
		rest := b.total[ki] - a.total[ki]
		for i := range b.dev[ki] {
			d := b.dev[ki][i] - a.dev[ki][i]
			rest -= d
			busiestDevice = max(busiestDevice, d)
		}
		cpus := make([]int64, len(b.cpu[ki]))
		for i := range cpus {
			cpus[i] = b.cpu[ki][i] - a.cpu[ki][i]
			rest -= cpus[i]
		}
		cpus[0] += rest
		for _, c := range cpus {
			busiest = max(busiest, c)
		}
	}
	return max(busiest, busiestDevice), busiestDevice
}

func delta(a, b map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(b))
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
