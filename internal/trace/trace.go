// Package trace implements the kernel's event-tracing and metering
// subsystem: "the meters". The paper's argument rests on being able
// to see inside the kernel — auditors who understand every statement,
// a census of module sizes, and performance claims about ring
// crossings, IPC and process swaps. This package makes the running
// simulation observable the same way: every object manager emits
// typed events into a fixed-capacity ring buffer, each stamped with
// the simulated cycle clock and the emitting module's name from the
// dependency graph, and the recorder keeps the cycle ledger: every
// charge on the kernel's cost meter names its module and is posted
// here to that module's account and to the account of the process the
// charging processor runs (see Charge). Module and process cycles are
// read from those accounts and nowhere else; events count operations,
// and spans time them.
//
// The discipline is deliberately cheap. Instrumented code holds a
// *Recorder that is nil when tracing is off, and every emission site
// guards with a single predictable branch, so the untraced path
// builds no event:
//
//	if m.trace != nil {
//		m.trace.Emit(trace.Event{...})
//	}
//
// When tracing is on, Emit writes one fixed-size Event value into a
// preallocated ring and bumps integer counters, and Charge adds to two
// accounts — no allocation on the hot path (a module's counter block
// and a process's account are allocated once, the first time each is
// seen).
//
// Everything is deterministic: two identical boots running identical
// workloads produce byte-identical event streams and snapshots,
// because events are stamped with the simulated cycle clock, not wall
// time.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind identifies one class of kernel event: the taxonomy of things
// the paper's performance discussion turns on.
type Kind uint8

const (
	// EvFault: the hardware took an exception (Arg0 is the fault
	// kind, Arg1/Arg2 the faulting segment and page).
	EvFault Kind = iota
	// EvGateCross: one crossing of a protection-ring boundary
	// (Arg0 is the ring left, Arg1 the ring entered).
	EvGateCross
	// EvPageFetch: the page frame manager made a page resident
	// (Arg0 is the owning segment UID, Arg1 the page; Arg2 is 1
	// when the contents came from a disk record, 0 for a zero
	// page, 2 for a never-before-used page being added).
	EvPageFetch
	// EvPageEvict: a page was removed from primary memory (Arg0
	// UID, Arg1 page; Arg2 is 1 when the page was all zeros and
	// its record was releasable).
	EvPageEvict
	// EvLockSpin: a processor waited on a locked page descriptor
	// set by another processor's fault service (Arg0 is the page).
	EvLockSpin
	// EvDispatch: a virtual processor was dispatched (Arg0 is the
	// virtual processor id, Arg1 the user process id or 0).
	EvDispatch
	// EvIPC: one message through a real-memory queue between
	// levels (Arg0/Arg1 are sender-specific).
	EvIPC
	// EvProcessSwap: a user-process state was loaded (Arg1 = 0) or
	// stored (Arg1 = 1) through the virtual memory (Arg0 is the
	// process id).
	EvProcessSwap
	// EvDiskRead: one record transferred from a pack (Arg0 is the
	// record address).
	EvDiskRead
	// EvDiskWrite: one record transferred to a pack (Arg0 is the
	// record address).
	EvDiskWrite
	// EvQuotaCheck: a growth was checked against a quota cell
	// (Arg0 pages requested, Arg1 pages used before, Arg2 limit).
	EvQuotaCheck
	// EvSignalRaise: a lower module raised an upward signal; the
	// event is attributed to the target module.
	EvSignalRaise
	// EvSignalHandle: the dispatch loop ran an upward signal's
	// handler after the raising chain unwound.
	EvSignalHandle
	// EvAwait: a process blocked awaiting an eventcount value
	// (Arg0 is the awaited value, Arg1 the current count).
	EvAwait
	// EvAdvance: an eventcount was advanced, waking whoever was
	// behind (Arg0 is the new count).
	EvAdvance
	// EvFaultInjected: the disk fault plane injected a fault (Arg0
	// is the operation class, -1 for a table-of-contents mutation;
	// Arg1 is 0 transient, 1 permanent, 2 crash).
	EvFaultInjected
	// EvSalvageRepair: the volume salvager repaired one
	// inconsistency (Arg0 is the repair class, Arg1/Arg2
	// repair-specific).
	EvSalvageRepair
	// EvAssocHit: a processor's associative memory answered an
	// address translation without a table walk (Arg0 segment
	// number, Arg1 page).
	EvAssocHit
	// EvAssocMiss: the associative memory could not answer and the
	// processor walked the descriptor tables (Arg0 segment number,
	// Arg1 page).
	EvAssocMiss
	// EvAssocClear: associative-memory entries were invalidated
	// (Arg0 is the clear class: 0 a page shootdown, 1 a segment
	// shootdown, 2 a process switch; Arg1 the page or segment
	// number, -1 for a process switch; Arg2 the entries cleared).
	EvAssocClear
	// EvWriteError: a grouped page write-back submission failed even
	// after retries, losing the evicted pages' contents (Arg0 is the
	// number of pages in the failed submission, Arg1 the first
	// record address).
	EvWriteError
	// EvRetryPressure: a fault-service retry loop crossed half its
	// retry budget — it is being starved of forward progress and will
	// error out if the pressure persists (Arg0 segment number, Arg1
	// offset, Arg2 retries so far).
	EvRetryPressure
	// EvDiskQueue: a request joined a pack's device queue (Arg0 the
	// request's first record address, Arg1 the queue depth after the
	// enqueue, Arg2 1 for a speculative read-ahead request).
	EvDiskQueue
	// EvPrefetchIssue: the page frame manager queued a speculative
	// read of a predicted-next page (Arg0 the record address, Arg1
	// the page number).
	EvPrefetchIssue
	// EvPrefetchHit: a demand fault was satisfied from the speculative
	// read-ahead cache without a demand disk read (Arg0 the record
	// address, Arg1 the page number).
	EvPrefetchHit
	// EvPrefetchDrop: a speculative entry was discarded unclaimed
	// (Arg0 the record address, Arg1 the page number, Arg2 the class:
	// 0 the speculative transfer faulted, 1 the entry went stale, 2
	// the frame was taken back for demand allocation).
	EvPrefetchDrop
	// EvNetFrame: a frame was demultiplexed and handed to its
	// connection (Arg0 the channel or connection id, Arg1 the payload
	// words, Arg2 1 when a subscriber consumed it directly, 0 when it
	// was queued).
	EvNetFrame
	// EvNetDrop: a frame was discarded instead of delivered (Arg0
	// the channel or connection id, Arg1 the drop class: 0 a full
	// delivery queue, 1 a protocol failure, 2 a connection out of
	// credits; Arg2 the queue depth or credit count at the drop).
	EvNetDrop
	// EvNetCredit: a consumer returned one flow-control credit to its
	// connection (Arg0 the connection id, Arg1 the credits available
	// after the return).
	EvNetCredit
	// EvRemoteSeg: one remote segment operation crossed the
	// inter-node channel (Arg0 the operation: 0 a read, 1 a copy;
	// Arg1 the words moved, Arg2 the serving-side channel).
	EvRemoteSeg

	// NumKinds is the size of per-kind counter arrays.
	NumKinds = int(EvRemoteSeg) + 1
)

var kindNames = [NumKinds]string{
	"fault", "gate-cross", "page-fetch", "page-evict", "lock-spin",
	"dispatch", "ipc", "process-swap", "disk-read", "disk-write",
	"quota-check", "signal-raise", "signal-handle", "await", "advance",
	"fault-injected", "salvage-repair", "assoc-hit", "assoc-miss",
	"assoc-clear", "write-error", "retry-pressure", "disk-queue",
	"prefetch-issue", "prefetch-hit", "prefetch-drop", "net-frame",
	"net-drop", "net-credit", "remote-seg",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MaxFaultKinds bounds the fault-by-type histogram; the hardware
// defines seven fault kinds and the array leaves one spare.
const MaxFaultKinds = 8

// faultNamer renders a fault-kind index in tables. Package hw
// replaces it at init with the hardware's own names, so the trace
// package needs no dependency on the hardware layer.
var faultNamer = func(kind int) string { return fmt.Sprintf("fault-%d", kind) }

// SetFaultNamer installs the renderer for fault-kind indices in
// exported tables. It is called once, from package init, before any
// recorder exists.
func SetFaultNamer(f func(kind int) string) {
	if f != nil {
		faultNamer = f
	}
}

// An Event is one record in the kernel event stream. The value is
// fixed-size so the ring buffer never allocates.
type Event struct {
	// Seq is the event's position in the stream, starting at 1.
	Seq uint64
	// Cycle is the simulated cycle clock when the event was
	// emitted.
	Cycle int64
	// CPU identifies the emitting processor, as processor id plus
	// one; zero means the event was emitted outside any processor's
	// dispatch (boot, daemons not bound to a CPU, tests). The
	// hardware stamps its own events; manager events are stamped
	// from the emitting task's BindCPU binding by the recorder.
	CPU int32
	// Kind classifies the event.
	Kind Kind
	// Module is the emitting module's name in the dependency
	// graph.
	Module string
	// Arg0, Arg1, Arg2 are kind-specific (see the Kind constants).
	Arg0, Arg1, Arg2 int64
}

func (e Event) String() string {
	cpu := "-"
	if e.CPU > 0 {
		cpu = fmt.Sprintf("%d", e.CPU-1)
	}
	return fmt.Sprintf("%8d %10d p%-2s %-13s %-26s %d %d %d",
		e.Seq, e.Cycle, cpu, e.Kind, e.Module, e.Arg0, e.Arg1, e.Arg2)
}

// A Clock supplies the simulated cycle stamp for events. The
// hardware cost meter satisfies it.
type Clock interface {
	Cycles() int64
}

// ModuleStats is one module's share of the meters: its account in the
// cycle ledger, event counts by kind, and fault counts by fault type.
type ModuleStats struct {
	// Ops counts events by kind.
	Ops [NumKinds]int64
	// Faults counts EvFault events by fault kind (Arg0).
	Faults [MaxFaultKinds]int64
	// cycles is the module's ledger account: every meter charge that
	// named it.
	cycles int64
}

// TotalOps reports the module's event count across all kinds.
func (m ModuleStats) TotalOps() int64 {
	var n int64
	for _, v := range m.Ops {
		n += v
	}
	return n
}

// TotalCycles reports the module's ledger account: the cycles of
// every meter charge that named it.
func (m ModuleStats) TotalCycles() int64 { return m.cycles }

func (m ModuleStats) sub(prev ModuleStats) ModuleStats {
	out := ModuleStats{cycles: m.cycles - prev.cycles}
	for i := range m.Ops {
		out.Ops[i] = m.Ops[i] - prev.Ops[i]
	}
	for i := range m.Faults {
		out.Faults[i] = m.Faults[i] - prev.Faults[i]
	}
	return out
}

// A Recorder is the kernel's one trace destination: a fixed-capacity
// ring of events plus the per-module meters. It is safe for concurrent use by
// multiple simulated processors.
type Recorder struct {
	clock Clock

	mu      sync.Mutex
	buf     []Event // ring storage, preallocated
	start   int     // index of the oldest retained event
	n       int     // retained events
	seq     uint64  // events ever emitted
	dropped uint64  // events overwritten by ring wrap

	stats      map[string]*ModuleStats
	registered map[string]bool

	// The ledger's process side (see ledger.go), guarded by mu.
	running [spanSlots]uint64
	procs   map[uint64]*ProcStats

	// sp is the span machinery (see span.go), guarded by mu.
	sp spanState
}

// DefaultCapacity is the ring capacity used when a caller passes a
// non-positive one.
const DefaultCapacity = 1 << 14

// NewRecorder returns a recorder retaining the most recent capacity
// events, stamping them from clock (which may be nil; events then
// carry cycle 0).
func NewRecorder(capacity int, clock Clock) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		clock:      clock,
		buf:        make([]Event, capacity),
		stats:      make(map[string]*ModuleStats),
		registered: make(map[string]bool),
		procs:      make(map[uint64]*ProcStats),
	}
	r.sp.init(capacity)
	return r
}

// Register declares the module names instrumentation is allowed to
// emit — normally the modules of the kernel's dependency graph. A
// name emitted without registration is reported by Unknown, the
// cheap lint that instrumentation stays in sync with the graph.
// Registered modules appear in attribution tables even with zero
// events.
func (r *Recorder) Register(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		r.registered[name] = true
		entry(r.stats, name)
	}
}

// Emit records one event, stamping its sequence number and simulated
// cycle clock. A nil recorder drops the event.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if e.CPU == 0 {
		e.CPU = BoundCPU()
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if r.clock != nil {
		e.Cycle = r.clock.Cycles()
	}
	if r.n == len(r.buf) {
		// Overwrite the oldest event.
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	}
	st := entry(r.stats, e.Module)
	st.Ops[e.Kind]++
	if e.Kind == EvFault && e.Arg0 >= 0 && e.Arg0 < MaxFaultKinds {
		st.Faults[e.Arg0]++
	}
	r.mu.Unlock()
}

// entry returns m[k], allocating it the first time k is seen: a
// module's or a process's counters, a span histogram.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v, ok := m[k]
	if !ok {
		v = new(V)
		m[k] = v
	}
	return v
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Unknown returns, sorted, every module name that emitted or was
// charged without being registered. A non-empty result means
// instrumentation has drifted from the dependency graph.
func (r *Recorder) Unknown() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name := range r.stats {
		if !r.registered[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// A Snapshot is a consistent copy of the meters at one instant,
// diffable against an earlier one.
type Snapshot struct {
	// Events is the count of events ever emitted.
	Events uint64
	// Dropped is the count of events the ring overwrote.
	Dropped uint64
	// Cycle is the simulated cycle clock at the snapshot.
	Cycle int64
	// Modules maps each module name seen (or registered) to its
	// counters.
	Modules map[string]ModuleStats
	// Spans maps each (module, span kind) seen to its latency
	// histogram.
	Spans map[SpanKey]SpanStats
	// Procs maps each process charged in the ledger to its account;
	// pid 0 is the no-process account.
	Procs map[uint64]ProcStats
}

// Snapshot copies the meters. A nil recorder yields a zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Modules: make(map[string]ModuleStats),
		Spans:   make(map[SpanKey]SpanStats),
		Procs:   make(map[uint64]ProcStats),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Events = r.seq
	s.Dropped = r.dropped
	if r.clock != nil {
		s.Cycle = r.clock.Cycles()
	}
	for name, st := range r.stats {
		s.Modules[name] = *st
	}
	for key, h := range r.sp.stats {
		s.Spans[key] = *h
	}
	for pid, pa := range r.procs {
		s.Procs[pid] = *pa
	}
	return s
}

// Since returns the difference s minus prev: what happened between
// the two snapshots. The meters are monotonic — no counter ever
// shrinks and no module, histogram, or process entry is ever removed
// — so every key of prev also exists in s and the difference is
// well-defined. (A key absent from prev diffs against the zero
// value.) The one non-counter is SpanStats.Max, which stays the
// running maximum at s rather than the interval's.
func (s Snapshot) Since(prev Snapshot) Snapshot {
	out := Snapshot{
		Events:  s.Events - prev.Events,
		Dropped: s.Dropped - prev.Dropped,
		Cycle:   s.Cycle - prev.Cycle,
		Modules: make(map[string]ModuleStats, len(s.Modules)),
		Spans:   make(map[SpanKey]SpanStats, len(s.Spans)),
		Procs:   make(map[uint64]ProcStats, len(s.Procs)),
	}
	for name, st := range s.Modules {
		out.Modules[name] = st.sub(prev.Modules[name])
	}
	for key, h := range s.Spans {
		out.Spans[key] = h.sub(prev.Spans[key])
	}
	for pid, pa := range s.Procs {
		out.Procs[pid] = pa.sub(prev.Procs[pid])
	}
	return out
}

// TotalCycles sums the module accounts: every cycle charged while the
// recorder was the meter's ledger.
func (s Snapshot) TotalCycles() int64 {
	var n int64
	for _, st := range s.Modules {
		n += st.TotalCycles()
	}
	return n
}

// moduleNames returns the snapshot's module names sorted.
func (s Snapshot) moduleNames() []string {
	names := make([]string, 0, len(s.Modules))
	for name := range s.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table renders the human cycle-attribution table. Layers gives the
// module certification order (bottom layer first), as computed from
// the dependency graph; accounts outside every layer (user
// computation, the user-ring services, the auditor, a module the graph
// does not know) follow at the end, marked outside, so every cycle of
// the ledger has a row.
func (s Snapshot) Table(layers [][]string) string {
	var b strings.Builder
	total := s.TotalCycles()
	fmt.Fprintf(&b, "cycle attribution by module, certification order (%d events, %d cycles attributed):\n", s.Events, total)
	listed := make(map[string]bool)
	writeRow := func(prefix, name string) {
		st := s.Modules[name]
		share := 0.0
		if total > 0 {
			share = 100 * float64(st.TotalCycles()) / float64(total)
		}
		fmt.Fprintf(&b, "    %s%-28s %12d cyc %5.1f%% %8d events", prefix, name, st.TotalCycles(), share, st.TotalOps())
		var faults int64
		for _, f := range st.Faults {
			faults += f
		}
		if faults > 0 {
			var parts []string
			for kind, f := range st.Faults {
				if f > 0 {
					parts = append(parts, fmt.Sprintf("%s=%d", faultNamer(kind), f))
				}
			}
			fmt.Fprintf(&b, "  faults: %s", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
	}
	for i, layer := range layers {
		for _, name := range layer {
			listed[name] = true
			writeRow(fmt.Sprintf("layer %d  ", i), name)
		}
	}
	for _, name := range s.moduleNames() {
		if !listed[name] {
			writeRow("outside  ", name)
		}
	}
	if s.Dropped > 0 {
		fmt.Fprintf(&b, "    (ring overwrote %d oldest events)\n", s.Dropped)
	}
	return b.String()
}

// PromText renders the meters as Prometheus-style text exposition
// lines, deterministically ordered, for scraping or diffing.
func (s Snapshot) PromText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "multics_trace_events_total %d\n", s.Events)
	fmt.Fprintf(&b, "multics_trace_dropped_total %d\n", s.Dropped)
	fmt.Fprintf(&b, "multics_sim_cycles_total %d\n", s.Cycle)
	for _, name := range s.moduleNames() {
		st := s.Modules[name]
		fmt.Fprintf(&b, "multics_module_cycles_total{module=%q} %d\n", name, st.TotalCycles())
		for kind := 0; kind < NumKinds; kind++ {
			if st.Ops[kind] == 0 {
				continue
			}
			fmt.Fprintf(&b, "multics_module_ops_total{module=%q,kind=%q} %d\n", name, Kind(kind), st.Ops[kind])
		}
		for kind, f := range st.Faults {
			if f > 0 {
				fmt.Fprintf(&b, "multics_module_faults_total{module=%q,kind=%q} %d\n", name, faultNamer(kind), f)
			}
		}
	}
	for _, key := range s.SpanKeys() {
		h := s.Spans[key]
		top := 0
		for i := 0; i < SpanBuckets; i++ {
			if h.Buckets[i] > 0 {
				top = i
			}
		}
		var cum int64
		for i := 0; i <= top; i++ {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "multics_span_cycles_bucket{module=%q,span=%q,le=\"%d\"} %d\n", key.Module, key.Kind, BucketUpper(i), cum)
		}
		fmt.Fprintf(&b, "multics_span_cycles_bucket{module=%q,span=%q,le=\"+Inf\"} %d\n", key.Module, key.Kind, h.Count)
		fmt.Fprintf(&b, "multics_span_cycles_sum{module=%q,span=%q} %d\n", key.Module, key.Kind, h.Cycles)
		fmt.Fprintf(&b, "multics_span_cycles_count{module=%q,span=%q} %d\n", key.Module, key.Kind, h.Count)
	}
	pids := make([]uint64, 0, len(s.Procs))
	for pid := range s.Procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		pa := s.Procs[pid]
		fmt.Fprintf(&b, "multics_process_cycles_total{pid=\"%d\"} %d\n", pid, pa.Cycles)
		fmt.Fprintf(&b, "multics_process_spans_total{pid=\"%d\"} %d\n", pid, pa.Spans)
	}
	return b.String()
}

// FormatEvents renders an event slice one line per event, a fixed
// format suitable for byte-identical comparison across runs.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
