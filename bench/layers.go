package main

import (
	"runtime"

	"multics/internal/disk"
	"multics/internal/pageframe"
	"multics/internal/quota"
)

// A reading is every counter the benchmark differences, taken from the
// layers' public Stats at one instant and summed over the workload's
// kernels. Counters are differenced between readings; gauges (high
// water marks and percentiles) are read as they stand.
type reading struct {
	counters map[string]int64
	gauges   map[string]int64
	mem      runtime.MemStats
	// Per kernel: the global meter, each processor's account and each
	// pack's device account, for the makespan.
	total []int64
	cpu   [][]int64
	dev   [][]int64
}

func read(inst instance, h *harness) reading {
	r := reading{counters: map[string]int64{}, gauges: map[string]int64{}}
	c, g := r.counters, r.gauges
	for _, k := range inst.kernels() {
		r.total = append(r.total, k.Meter.Cycles())
		var cpus []int64
		for _, cpu := range k.CPUs {
			cpus = append(cpus, k.Meter.CPUCycles(cpu.ID))
			n, cyc := cpu.TranslationStats()
			c["hw.translations"] += n
			c["hw.translation_cycles"] += cyc
		}
		r.cpu = append(r.cpu, cpus)
		var devs []int64
		for _, id := range k.Vols.Packs() {
			p, err := k.Vols.Pack(id)
			if err != nil {
				continue
			}
			devs = append(devs, p.DeviceCycles())
			enq, depth := p.QueueStats()
			c["disk.enqueued"] += enq
			g["disk.max_queue_depth"] = max(g["disk.max_queue_depth"], int64(depth))
		}
		r.dev = append(r.dev, devs)

		fs := k.Frames.Stats()
		for name, v := range map[string]int64{
			"pageframe.faults": fs.Faults, "pageframe.evictions": fs.Evictions,
			"pageframe.zero_evictions": fs.ZeroEvictions, "pageframe.zero_rescues": fs.ZeroRescues,
			"pageframe.shootdowns": fs.Shootdowns, "pageframe.writeback_errors": fs.WriteBackErrors,
			"pageframe.prefetch_issued": fs.PrefetchIssued, "pageframe.prefetch_hits": fs.PrefetchHits,
			"pageframe.prefetch_drops": fs.PrefetchDrops, "pageframe.prefetch_steals": fs.PrefetchSteals,
			"hw.assoc_hits": fs.AssocHits, "hw.assoc_misses": fs.AssocMisses,
		} {
			c[name] += v
		}
		ss := k.Procs.SchedStats()
		c["uproc.dispatches"] += ss.Dispatches
		c["uproc.steals"] += ss.Steals
		c["uproc.migrations"] += ss.Migrations
		c["uproc.wakeups"] += ss.Wakeups
		g["uproc.max_queue_depth"] = max(g["uproc.max_queue_depth"], int64(ss.MaxQueueDepth))
		half, out := k.RetryStats()
		c["core.retry_pressure"] += half
		c["core.retry_exhausted"] += out
		c["quota.grow_races"] += k.Cells.Stats().GrowRaces
		if k.Trace != nil {
			mods := k.Trace.Snapshot().Modules
			for name, mod := range map[string]string{
				"pageframe.sim_cycles": pageframe.ModuleName,
				"disk.sim_cycles":      disk.ModuleName,
				"quota.sim_cycles":     quota.ModuleName,
			} {
				c[name] += mods[mod].TotalCycles()
			}
		}
	}
	for _, n := range inst.nodes() {
		ms := n.Mux.MuxStats()
		c["netmux.dropped"] += ms.Dropped
		c["netmux.protocol_errors"] += ms.ProtocolErrors
		ts, is := n.Terminals.Stats(), n.Inter.Stats()
		c["fnp.frames"] += ts.Frames + is.Frames
		c["fnp.delivered"] += ts.Delivered + is.Delivered
		c["fnp.drops"] += ts.Drops + is.Drops
		c["fnp.credits"] += ts.Credits + is.Credits
	}
	if ns := inst.nodes(); len(ns) > 0 {
		g["fnp.delivery_p50_cycles"] = ns[0].Terminals.LatencyPercentile(50)
		g["fnp.delivery_p99_cycles"] = ns[0].Terminals.LatencyPercentile(99)
	}
	c["answering.login_failures"] = h.loginFailures
	c["uproc.wake_retries"] = h.wakeRetries
	c["schedsim.steps"] = h.simSteps
	c["schedsim.host_ns"] = h.simHostNs
	g["schedsim.decisions_retained"] = h.simMaxRetained
	c["failed"] = h.failed
	runtime.ReadMemStats(&r.mem)
	c["runtime.gc_cycles"] = int64(r.mem.NumGC)
	c["runtime.gc_pause_ns"] = int64(r.mem.PauseTotalNs)
	c["runtime.mallocs"] = int64(r.mem.Mallocs)
	return r
}
