package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// A spanName identifies one layer entry point the benchmark calls.
type spanName uint8

const (
	spOp spanName = iota
	spLogin
	spLogout
	spHandleFrame
	spCreate
	spDestroy
	spQuanta
	spRead
	spWrite
	spDeactivate
	spDeliver
	spDrain
	spRemoteRead
	numSpans
)

// spanNames are the entry points as the per-layer metrics name them.
// bench.op is not a layer: it is the root of a multi-call op, and its
// self time is the harness's own cost.
var spanNames = [numSpans]string{
	"bench.op",
	"answering.login", "answering.logout", "answering.handle_frame",
	"uproc.create", "uproc.destroy", "uproc.quanta",
	"core.read", "core.write",
	"segment.deactivate",
	"netmux.deliver", "fnp.drain", "internode.remote_read",
}

// A span is one completed call as written to the span file. Host times
// are nanoseconds since the tracer started; cycles are the workload's
// global meter clock, the clock the kernel's own spans use.
type span struct {
	Name      string `json:"name"`
	Op        int64  `json:"op"`
	Parent    int32  `json:"parent"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	CycStart  int64  `json:"cycle_start"`
	CycEnd    int64  `json:"cycle_end"`
}

// A frame is an open span on a lane's stack.
type frame struct {
	name                spanName
	idx                 int32
	op                  int64
	wall0, host0, cyc0  int64
	childHost, childCyc int64
}

// maxLanes bounds the execution lanes: lane 0 is the driver goroutine,
// lane 1+i the executor task that runs simulated processor i.
const (
	maxLanes = 1 + 4
	maxDepth = 8
)

type lane struct {
	stack [maxDepth]frame
	depth int
}

// spanAgg accumulates one entry point's calls and self costs: each
// span's duration minus the part its child spans cover, on both clocks.
type spanAgg struct {
	calls, hostNs, cycles int64
}

// A tracer records spans around every call the benchmark makes into a
// layer's public functions. The stacks are per lane, because under the
// sim executor the two processors' tasks interleave at the kernel's
// yield points. On the simulated clock a span includes the other
// processor's cycles while its own task was parked: that is the
// global-clock latency the kernel's own spans report. On the host
// clock it does not: a task's lane advances only while that task holds
// the executor's token (the executor's strategy reports every hand-off
// through switchTo), so host self time is the call's own cost. The
// driver's lane reads the wall clock, so a driver span around an
// executor run includes every task's work. Tasks run one at a time,
// handing the token over channels, so the tracer needs no lock.
//
// A nil *tracer is the untraced benchmark: every method returns at
// once.
type tracer struct {
	clock   func() int64
	t0      time.Time
	lanes   [maxLanes]lane
	buf     []span
	dropped int64
	agg     [numSpans]spanAgg

	// running is the lane holding the executor's token, switched the
	// wall time it took it, laneNs each lane's host time before that.
	running  int
	switched int64
	laneNs   [maxLanes]int64
}

// newTracer returns a tracer stamping cycles from clock and keeping at
// most capacity spans for the span file; later spans are still
// aggregated but not kept.
func newTracer(clock func() int64, capacity int) *tracer {
	return &tracer{clock: clock, t0: time.Now(), buf: make([]span, 0, capacity)}
}

func (t *tracer) wall() int64 { return int64(time.Since(t.t0)) }

// host reads lane ln's host clock at wall time now.
func (t *tracer) host(ln int, now int64) int64 {
	if ln == 0 {
		return now
	}
	v := t.laneNs[ln]
	if t.running == ln {
		v += now - t.switched
	}
	return v
}

// switchTo records that lane ln now holds the executor's token; lane 0
// takes it back when the executor run returns.
func (t *tracer) switchTo(ln int) {
	if t == nil {
		return
	}
	now := t.wall()
	t.laneNs[t.running] += now - t.switched
	t.running, t.switched = ln, now
}

func (t *tracer) begin(ln int, name spanName, op int64) {
	if t == nil {
		return
	}
	l := &t.lanes[ln]
	f := &l.stack[l.depth]
	l.depth++
	*f = frame{name: name, idx: -1, op: op}
	if len(t.buf) < cap(t.buf) {
		f.idx = int32(len(t.buf))
		t.buf = t.buf[:len(t.buf)+1]
	} else {
		t.dropped++
	}
	f.wall0 = t.wall()
	f.host0 = t.host(ln, f.wall0)
	f.cyc0 = t.clock()
}

// end closes the lane's innermost span as one call.
func (t *tracer) end(ln int) { t.endCalls(ln, 1) }

// endCalls closes the lane's innermost span, counting it as calls
// calls: a quantum phase is one span but n dispatches.
func (t *tracer) endCalls(ln int, calls int64) {
	if t == nil {
		return
	}
	cyc := t.clock()
	wall := t.wall()
	l := &t.lanes[ln]
	l.depth--
	f := &l.stack[l.depth]
	dh, dc := t.host(ln, wall)-f.host0, cyc-f.cyc0
	a := &t.agg[f.name]
	a.calls += calls
	a.hostNs += dh - f.childHost
	a.cycles += dc - f.childCyc
	parent := int32(-1)
	if l.depth > 0 {
		p := &l.stack[l.depth-1]
		p.childHost += dh
		p.childCyc += dc
		parent = p.idx
	}
	if f.idx >= 0 {
		t.buf[f.idx] = span{
			Name: spanNames[f.name], Op: f.op, Parent: parent,
			HostStart: f.wall0, HostEnd: wall, CycStart: f.cyc0, CycEnd: cyc,
		}
	}
}

// writeSpans writes every kept span as one JSON object per line, in
// start order; a span's parent is its line index, -1 for a root.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.buf {
		if err := enc.Encode(&t.buf[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
