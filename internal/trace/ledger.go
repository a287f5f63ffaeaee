package trace

// DeviceWork is Charge's processor for work a device performs on its
// own engine, which no process is charged.
const DeviceWork int32 = -1

// ProcStats is one process's account in the cycle ledger: the cycles
// charged while it ran on the charging processor, and the spans that
// ended while it ran. Pid 0 is the no-process account.
type ProcStats struct {
	Cycles int64
	Spans  int64
}

func (p ProcStats) sub(prev ProcStats) ProcStats {
	return ProcStats{Cycles: p.Cycles - prev.Cycles, Spans: p.Spans - prev.Spans}
}

// Charge posts n cycles to module's account and to that of the process
// running on processor cpu, as BoundCPU reports it (processor id plus
// one, zero off any processor); DeviceWork charges no process. The
// cost meter calls it for every charge once the recorder is its
// ledger. It takes the recorder's mutex and no other lock, and
// allocates only on the first sight of a module or a process.
func (r *Recorder) Charge(module string, cpu int32, n int64) {
	r.mu.Lock()
	entry(r.stats, module).cycles += n
	var pid uint64
	if cpu != DeviceWork {
		pid = r.running[int(cpu)%spanSlots]
	}
	entry(r.procs, pid).Cycles += n
	r.mu.Unlock()
}

// SetRunningProcess records which user process processor cpu is
// running: the charges and span ends of the task BindCPU(cpu) bound
// are counted to it until the next call. Zero means none; cpu -1 names
// the slot of work off any task. The processor is named, not taken
// from the caller's binding, so a process attached from off any task
// is still charged on its processor.
func (r *Recorder) SetRunningProcess(cpu int, pid uint64) {
	if r == nil {
		return
	}
	slot := (cpu + 1) % spanSlots
	r.mu.Lock()
	r.running[slot] = pid
	r.mu.Unlock()
}

// SwapRunningProcess makes pid the process charged on the calling
// context's processor, and returns the process it replaces (zero:
// none). The kernel sets a process aside with it for work done on no
// process's behalf, then puts it back.
func (r *Recorder) SwapRunningProcess(pid uint64) uint64 {
	if r == nil {
		return 0
	}
	slot := int(BoundCPU()) % spanSlots
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.running[slot]
	r.running[slot] = pid
	return prev
}
