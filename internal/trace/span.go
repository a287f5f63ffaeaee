// Spans: the latency layer of the meters. Events answer "what
// happened and what did it cost"; spans answer "how long did the
// compound operation take, and where inside it did the time go". A
// span is a fixed-size begin/end record stamped from the simulated
// cycle clock, nested per processor, so a page-fault service span
// contains its disk-read and shootdown children and the retained
// stream supports a critical-path decomposition and a folded-stack
// (flamegraph) export.
//
// Instrumented code calls BeginSpan, EndSpan and SetRunningProcess
// on its *Recorder directly: they are nil-safe, so an untraced
// manager (nil recorder) pays one branch inside the call. Begin/End
// write into preallocated fixed-size structures — per-slot stacks of
// fixed depth, a preallocated span ring, and 64-bucket log₂
// histograms whose stat blocks are allocated once per (module, kind).
// Durations are simulated cycles, so single-processor runs are
// byte-deterministic.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// SpanKind identifies one class of compound kernel operation.
type SpanKind uint8

const (
	// SpanFaultService: one page-fault service in the page frame
	// manager, from entry to unlock-and-notify (Arg is the page).
	SpanFaultService SpanKind = iota
	// SpanDiskRead: one record transferred from a pack (Arg is the
	// record address).
	SpanDiskRead
	// SpanDiskWrite: one record or batch transferred to a pack (Arg
	// is the record address, or the batch size for a batch).
	SpanDiskWrite
	// SpanShootdown: a cross-processor associative-memory
	// invalidation broadcast (Arg is the page or segment number).
	SpanShootdown
	// SpanGate: a protected gate call — both ring crossings plus the
	// kernel body between them (Arg is the ring entered).
	SpanGate
	// SpanSignal: one upward-signal handler run by the dispatch loop
	// (the module is the signal's target).
	SpanSignal
	// SpanQuantum: one scheduler quantum — dispatch, user body, and
	// preemption (Arg is the quantum's index in its RunQuantum call).
	SpanQuantum
	// SpanVPDispatch: one work item run by a kernel-bound virtual
	// processor (Arg is the virtual processor id).
	SpanVPDispatch
	// SpanLockWait: a processor blocked on a locked page descriptor
	// until the holder's notify (Arg is the page).
	SpanLockWait

	// NumSpanKinds is the size of per-kind arrays.
	NumSpanKinds = int(SpanLockWait) + 1
)

var spanKindNames = [NumSpanKinds]string{
	"fault-service", "disk-read", "disk-write", "shootdown", "gate",
	"signal-handle", "quantum", "vp-dispatch", "lock-wait",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", int(k))
}

// A Span is one completed compound operation. The value is fixed-size
// so the span ring never allocates.
type Span struct {
	// ID is the span's identity, assigned at begin time; parents
	// always have smaller IDs than their children.
	ID uint64
	// Parent is the ID of the enclosing span on the same processor,
	// zero for a root.
	Parent uint64
	// CPU identifies the processor the span ran on, as processor id
	// plus one; zero means outside any processor's dispatch.
	CPU int32
	// Kind classifies the operation.
	Kind SpanKind
	// Module is the operating module's name in the dependency graph.
	Module string
	// Proc is the user process that was running on the span's
	// processor when it ended, zero when none was dispatched.
	Proc uint64
	// Start and End are the simulated cycle clock at begin and end.
	Start, End int64
	// Child is the portion of the span's cycles spent inside nested
	// child spans; Children counts them.
	Child    int64
	Children int32
	// Arg is kind-specific (see the SpanKind constants).
	Arg int64
}

// Cycles reports the span's total duration in simulated cycles.
func (s Span) Cycles() int64 { return s.End - s.Start }

// Self reports the span's duration minus the time inside child spans.
func (s Span) Self() int64 { return s.Cycles() - s.Child }

func (s Span) String() string {
	cpu := "-"
	if s.CPU > 0 {
		cpu = fmt.Sprintf("%d", s.CPU-1)
	}
	return fmt.Sprintf("%8d %10d %10d p%-2s %-13s %-26s parent=%-8d cyc=%-8d self=%-8d kids=%-3d proc=%-4d arg=%d",
		s.ID, s.Start, s.End, cpu, s.Kind, s.Module, s.Parent, s.Cycles(), s.Self(), s.Children, s.Proc, s.Arg)
}

// SpanBuckets is the number of log₂ latency buckets per (module,
// kind): bucket 0 holds zero-cycle spans, bucket i (i ≥ 1) holds
// durations in [2^(i-1), 2^i − 1], and the top bucket absorbs
// everything beyond.
const SpanBuckets = 64

// bucketOf maps a duration to its log₂ bucket.
func bucketOf(d int64) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= SpanBuckets {
		b = SpanBuckets - 1
	}
	return b
}

// BucketUpper reports the inclusive upper bound of bucket i: zero for
// bucket 0, 2^i − 1 otherwise. Percentiles are reported as bucket
// upper bounds, so they are deterministic and overestimate the true
// value by at most 2×.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// A SpanKey names one latency histogram: the operating module and the
// span kind.
type SpanKey struct {
	Module string
	Kind   SpanKind
}

// SpanStats is one (module, kind) latency histogram: fixed-size, so
// updating it on the hot path allocates nothing.
type SpanStats struct {
	// Count is completed spans; Cycles their total duration; Child
	// the portion of Cycles inside nested child spans.
	Count, Cycles, Child int64
	// Max is the exact largest duration seen (a running maximum: in a
	// Since diff it is the maximum at the later snapshot, not the
	// interval's).
	Max int64
	// Buckets counts spans by log₂ duration bucket (see SpanBuckets).
	Buckets [SpanBuckets]int64
}

// Self reports the histogram's total cycles minus time inside child
// spans.
func (h SpanStats) Self() int64 { return h.Cycles - h.Child }

// Percentile reports the latency at or below which the fraction q
// (0 < q ≤ 1) of spans completed, as the containing bucket's upper
// bound clamped to Max — deterministic, and an overestimate of at
// most 2×. Percentile(1) equals Max exactly.
func (h SpanStats) Percentile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum int64
	for i := 0; i < SpanBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			u := BucketUpper(i)
			if u > h.Max {
				u = h.Max
			}
			return u
		}
	}
	return h.Max
}

func (h SpanStats) sub(prev SpanStats) SpanStats {
	out := SpanStats{
		Count:  h.Count - prev.Count,
		Cycles: h.Cycles - prev.Cycles,
		Child:  h.Child - prev.Child,
		Max:    h.Max, // running maximum; see the field comment
	}
	for i := range h.Buckets {
		out.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// ProcStats is one user process's share of the meters: the self-time
// (span cycles minus child-span cycles, so nothing is double-counted)
// of every span that ended while the process was running.
type ProcStats struct {
	Cycles int64
	Spans  int64
}

func (p ProcStats) sub(prev ProcStats) ProcStats {
	return ProcStats{Cycles: p.Cycles - prev.Cycles, Spans: p.Spans - prev.Spans}
}

// spanSlots is one per-processor span stack per possible BindCPU
// binding, plus slot 0 for unbound contexts.
const spanSlots = 65

// MaxSpanDepth bounds span nesting per processor; a begin past the
// limit is dropped (and its matching end absorbed) rather than grown.
const MaxSpanDepth = 32

// spanFrame is one open span on a processor's stack.
type spanFrame struct {
	id       uint64
	kind     SpanKind
	module   string
	arg      int64
	start    int64
	child    int64
	children int32
}

type spanStack struct {
	depth    int
	overflow int // begins dropped past MaxSpanDepth, to absorb their ends
	frames   [MaxSpanDepth]spanFrame
}

// spanState is the recorder's span machinery, guarded by the
// recorder's mutex.
type spanState struct {
	buf        []Span // completed-span ring, preallocated
	start      int    // index of the oldest retained span
	n          int    // retained spans
	seq        uint64 // spans ever begun
	done       uint64 // spans ever completed
	dropped    uint64 // completed spans overwritten by ring wrap
	mismatched uint64 // ends with no matching begin

	stacks  [spanSlots]spanStack
	curProc [spanSlots]uint64

	stats map[SpanKey]*SpanStats
	procs map[uint64]*ProcStats
}

func (s *spanState) init(capacity int) {
	s.buf = make([]Span, capacity)
	s.stats = make(map[SpanKey]*SpanStats)
	s.procs = make(map[uint64]*ProcStats)
}

// BeginSpan opens a span of the given kind on the calling context's
// processor slot. A nil recorder drops the mark.
func (r *Recorder) BeginSpan(kind SpanKind, module string, arg int64) {
	if r == nil {
		return
	}
	slot := int(BoundCPU()) % spanSlots
	r.mu.Lock()
	st := &r.sp.stacks[slot]
	if st.depth >= MaxSpanDepth {
		st.overflow++
		r.mu.Unlock()
		return
	}
	r.sp.seq++
	var start int64
	if r.clock != nil {
		start = r.clock.Cycles()
	}
	st.frames[st.depth] = spanFrame{id: r.sp.seq, kind: kind, module: module, arg: arg, start: start}
	st.depth++
	r.mu.Unlock()
}

// EndSpan closes the innermost open span on the calling context's
// processor slot, which must be of the given kind: the duration is
// charged to the (module, kind) histogram, to the enclosing span's
// child time, and — self-time only — to the running user process. A
// mismatched end is counted and otherwise ignored.
func (r *Recorder) EndSpan(kind SpanKind) {
	if r == nil {
		return
	}
	slot := int(BoundCPU()) % spanSlots
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.sp.stacks[slot]
	if st.overflow > 0 {
		st.overflow--
		return
	}
	if st.depth == 0 || st.frames[st.depth-1].kind != kind {
		r.sp.mismatched++
		return
	}
	st.depth--
	f := st.frames[st.depth]
	var end int64
	if r.clock != nil {
		end = r.clock.Cycles()
	}
	dur := end - f.start
	var parent uint64
	if st.depth > 0 {
		p := &st.frames[st.depth-1]
		parent = p.id
		p.child += dur
		p.children++
	}
	pid := r.sp.curProc[slot]
	sp := Span{
		ID: f.id, Parent: parent, CPU: int32(slot), Kind: kind, Module: f.module,
		Proc: pid, Start: f.start, End: end, Child: f.child, Children: f.children, Arg: f.arg,
	}
	s := &r.sp
	if s.n == len(s.buf) {
		s.buf[s.start] = sp
		s.start = (s.start + 1) % len(s.buf)
		s.dropped++
	} else {
		s.buf[(s.start+s.n)%len(s.buf)] = sp
		s.n++
	}
	s.done++
	key := SpanKey{Module: f.module, Kind: kind}
	h, ok := s.stats[key]
	if !ok {
		h = new(SpanStats)
		s.stats[key] = h
	}
	h.Count++
	h.Cycles += dur
	h.Child += f.child
	if dur > h.Max {
		h.Max = dur
	}
	h.Buckets[bucketOf(dur)]++
	if pid != 0 {
		pa, ok := s.procs[pid]
		if !ok {
			pa = new(ProcStats)
			s.procs[pid] = pa
		}
		pa.Cycles += dur - f.child
		pa.Spans++
	}
}

// SetRunningProcess records which user process the calling
// context's processor is running; span self-time is attributed to
// it until the next call. Zero means none.
func (r *Recorder) SetRunningProcess(pid uint64) {
	if r == nil {
		return
	}
	slot := int(BoundCPU()) % spanSlots
	r.mu.Lock()
	r.sp.curProc[slot] = pid
	r.mu.Unlock()
}

// Spans returns the retained completed spans, completion order,
// oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.sp.n)
	for i := 0; i < r.sp.n; i++ {
		out[i] = r.sp.buf[(r.sp.start+i)%len(r.sp.buf)]
	}
	return out
}

// SpansDropped reports how many completed spans the ring has
// overwritten.
func (r *Recorder) SpansDropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sp.dropped
}

// SpanMismatches reports how many EndSpan calls found no matching
// open span — an instrumentation bug if nonzero.
func (r *Recorder) SpanMismatches() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sp.mismatched
}

// spanKeys returns the snapshot's histogram keys sorted by module
// then kind.
func (s Snapshot) spanKeys() []SpanKey {
	keys := make([]SpanKey, 0, len(s.Spans))
	for key := range s.Spans {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Module != keys[j].Module {
			return keys[i].Module < keys[j].Module
		}
		return keys[i].Kind < keys[j].Kind
	})
	return keys
}

// FormatSpans renders a span slice one line per span, a fixed format
// suitable for byte-identical comparison across runs.
func FormatSpans(spans []Span) string {
	var b strings.Builder
	for _, s := range spans {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FoldedStacks renders completed spans in the collapsed-stack format
// flamegraph tools consume: one line per distinct ancestry path,
// "module:kind;module:kind;... self-cycles", aggregated and sorted. A
// span whose parent was overwritten by the ring roots its own stack;
// zero-self-time spans contribute no width and are omitted.
func FoldedStacks(spans []Span) string {
	byID := make(map[uint64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	agg := make(map[string]int64)
	var parts []string
	for i := range spans {
		sp := &spans[i]
		self := sp.Self()
		if self <= 0 {
			continue
		}
		parts = parts[:0]
		// Parents begin before children, so IDs strictly decrease up
		// the chain and the walk terminates.
		for cur := sp; cur != nil; cur = byID[cur.Parent] {
			parts = append(parts, cur.Module+":"+cur.Kind.String())
		}
		for l, r := 0, len(parts)-1; l < r; l, r = l+1, r-1 {
			parts[l], parts[r] = parts[r], parts[l]
		}
		agg[strings.Join(parts, ";")] += self
	}
	paths := make([]string, 0, len(agg))
	for p := range agg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		b.WriteString(p)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(agg[p], 10))
		b.WriteByte('\n')
	}
	return b.String()
}
