package main

import (
	"math"
	"sort"
)

// A metricSpec names one metric as BENCHMARK.json does.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, in report order.
// Host figures are measured untraced over the whole measured phase;
// sim figures cover the fixed leading batches, so a seed repeats them
// exactly.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"host_ops_per_s", "ops/s", "higher"},
	{"host_alloc_bytes_per_op", "B/op", "lower"},
	{"host_peak_heap_mb", "MiB", "lower"},
	{"sim_cycles_per_op", "cycles/op", "lower"},
	{"sim_op_p50_cycles", "cycles", "lower"},
	{"sim_op_p99_cycles", "cycles", "lower"},
	{"sim_makespan_cycles", "cycles", "lower"},
}

// layerInput is what the per-layer metrics are computed from: counter
// deltas over the sim batches and over the whole phase, gauges at the
// end, and the tracer's per-entry-point aggregates over both spans of
// time. Counts come from the sim batches so they repeat exactly for a
// seed; host times come from the whole phase.
type layerInput struct {
	sim, full     map[string]int64
	gauges        map[string]int64
	simAgg, agg   [numSpans]spanAgg
	simOps        int64
	busiestDevice int64
}

// A layerMetric is one per-layer metric and how to compute it.
type layerMetric struct {
	metricSpec
	value func(in *layerInput) float64
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// entry yields an entry point's calls, host self time per call and
// simulated self cycles per call.
func entry(sp spanName) []layerMetric {
	n := spanNames[sp]
	return []layerMetric{
		{metricSpec{n + ".calls", "calls", "lower"}, func(in *layerInput) float64 { return float64(in.simAgg[sp].calls) }},
		{metricSpec{n + ".host_ns_per_call", "ns/call", "lower"}, func(in *layerInput) float64 { return ratio(in.agg[sp].hostNs, in.agg[sp].calls) }},
		{metricSpec{n + ".sim_cycles_per_call", "cycles/call", "lower"}, func(in *layerInput) float64 { return ratio(in.simAgg[sp].cycles, in.simAgg[sp].calls) }},
	}
}

// count is a counter's delta over the sim batches.
func count(name, unit, better string) layerMetric {
	return layerMetric{metricSpec{name, unit, better}, func(in *layerInput) float64 { return float64(in.sim[name]) }}
}

// gauge is a high-water mark or percentile as it stands at the end.
func gauge(name, unit string) layerMetric {
	return layerMetric{metricSpec{name, unit, "lower"}, func(in *layerInput) float64 { return float64(in.gauges[name]) }}
}

func derived(name, unit, better string, f func(in *layerInput) float64) layerMetric {
	return layerMetric{metricSpec{name, unit, better}, f}
}

// perLayer are the traced run's metrics, layer by layer, in the order
// BENCHMARK.json lists them. bench/README.md maps each to the
// end-to-end metric it should move.
var perLayer = concat(
	entry(spLogin), entry(spLogout), entry(spHandleFrame),
	[]layerMetric{count("answering.login_failures", "count", "lower")},

	entry(spCreate), entry(spDestroy), entry(spQuanta),
	[]layerMetric{
		count("uproc.dispatches", "count", "higher"),
		count("uproc.steals", "count", "lower"),
		count("uproc.migrations", "count", "lower"),
		count("uproc.wakeups", "count", "higher"),
		count("uproc.wake_retries", "count", "lower"),
		gauge("uproc.max_queue_depth", "count"),

		count("schedsim.steps", "count", "lower"),
		derived("schedsim.host_ns_per_step", "ns/step", "lower", func(in *layerInput) float64 {
			return ratio(in.full["schedsim.host_ns"], in.full["schedsim.steps"])
		}),
		gauge("schedsim.decisions_retained", "count"),
	},

	entry(spRead), entry(spWrite),
	[]layerMetric{
		count("core.retry_pressure", "count", "lower"),
		count("core.retry_exhausted", "count", "lower"),
	},

	entry(spDeactivate),

	[]layerMetric{
		count("pageframe.faults", "count", "lower"),
		count("pageframe.evictions", "count", "lower"),
		count("pageframe.zero_evictions", "count", "higher"),
		count("pageframe.zero_rescues", "count", "lower"),
		count("pageframe.shootdowns", "count", "lower"),
		count("pageframe.writeback_errors", "count", "lower"),
		count("pageframe.prefetch_issued", "count", "lower"),
		count("pageframe.prefetch_hits", "count", "higher"),
		count("pageframe.prefetch_drops", "count", "lower"),
		count("pageframe.prefetch_steals", "count", "lower"),
		derived("pageframe.readahead_hit_ratio", "ratio", "higher", func(in *layerInput) float64 {
			return ratio(in.sim["pageframe.prefetch_hits"], in.sim["pageframe.faults"])
		}),
		derived("pageframe.prefetch_useful_ratio", "ratio", "higher", func(in *layerInput) float64 {
			return ratio(in.sim["pageframe.prefetch_hits"], in.sim["pageframe.prefetch_issued"])
		}),
		count("pageframe.sim_cycles", "cycles", "lower"),

		derived("hw.assoc_hit_ratio", "ratio", "higher", func(in *layerInput) float64 {
			hits := in.sim["hw.assoc_hits"]
			return ratio(hits, hits+in.sim["hw.assoc_misses"])
		}),
		derived("hw.translation_cycles_per_ref", "cycles/ref", "lower", func(in *layerInput) float64 {
			return ratio(in.sim["hw.translation_cycles"], in.sim["hw.translations"])
		}),

		derived("disk.busiest_device_cycles", "cycles", "lower", func(in *layerInput) float64 {
			return float64(in.busiestDevice)
		}),
		count("disk.enqueued", "count", "lower"),
		gauge("disk.max_queue_depth", "count"),
		count("disk.sim_cycles", "cycles", "lower"),

		count("quota.grow_races", "count", "lower"),
		count("quota.sim_cycles", "cycles", "lower"),
	},

	entry(spDeliver),
	[]layerMetric{
		count("netmux.dropped", "count", "lower"),
		count("netmux.protocol_errors", "count", "lower"),
	},

	entry(spDrain),
	[]layerMetric{
		count("fnp.frames", "count", "higher"),
		count("fnp.delivered", "count", "higher"),
		count("fnp.drops", "count", "lower"),
		count("fnp.credits", "count", "higher"),
		gauge("fnp.delivery_p50_cycles", "cycles"),
		gauge("fnp.delivery_p99_cycles", "cycles"),
	},

	entry(spRemoteRead),

	[]layerMetric{
		count("runtime.gc_cycles", "count", "lower"),
		count("runtime.gc_pause_ns", "ns", "lower"),
		derived("runtime.mallocs_per_op", "mallocs/op", "lower", func(in *layerInput) float64 {
			return ratio(in.sim["runtime.mallocs"], in.simOps)
		}),
	},
)

func concat(parts ...[]layerMetric) []layerMetric {
	var out []layerMetric
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// latencies counts op latencies by value. The cost model's latencies
// take few distinct values, so exact percentiles need little memory
// and the record does not grow the heap the benchmark measures.
type latencies struct {
	count map[int64]int64
	n     int64
}

func newLatencies() latencies { return latencies{count: map[int64]int64{}} }

func (l *latencies) add(v int64) {
	l.count[v]++
	l.n++
}

// percentile is the nearest-rank p-th percentile.
func (l *latencies) percentile(p float64) int64 {
	keys := make([]int64, 0, len(l.count))
	for k := range l.count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := max(1, int64(math.Ceil(p/100*float64(l.n))))
	var seen int64
	for _, k := range keys {
		if seen += l.count[k]; seen >= rank {
			return k
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) and
// statistics.median do, so the spreads printed here are the ones the
// bounds are checked against.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	// The exclusive method: positions i*(n+1)/4, clamped to [1, n-1].
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// median is the middle of values.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
