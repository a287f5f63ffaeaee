// Package netmux implements the connection of the system to
// multiplexed networks — the area Ciccarelli's project attacked.
//
// Two multiplexed communication streams attach to Multics: the
// ARPANET and the local front-end processor with its terminals. In
// the original organization each network's full protocol handler
// lived in ring zero (about 7,000 lines for the two streams, 20% of
// the supervisor), and attaching a third network would have added a
// third in-kernel handler: kernel bulk grew linearly with networks.
//
// The redesign keeps only a small, network-independent demultiplexer
// in the kernel — it reads enough of each frame to route it to the
// owning connection — and moves the per-network protocol processing
// to the user domain. The kernel residue shrinks below 1,000 lines
// and grows only slightly per attached network.
package netmux

import (
	"errors"
	"fmt"
	"sync"

	"multics/internal/hw"
	"multics/internal/trace"
)

// ModuleName is the demultiplexer's name in kernel traces. The mux is
// not a module of the Figure-4 lattice — it is the small kernel
// residue Ciccarelli's redesign leaves behind — but its events carry
// a registered name like every manager's.
const ModuleName = "net-demux"

// Mode selects the organization.
type Mode int

const (
	// PerNetworkKernel: one full protocol handler per network in
	// ring zero (the original organization).
	PerNetworkKernel Mode = iota
	// GenericKernel: a network-independent demultiplexer in the
	// kernel; protocol handlers in the user ring.
	GenericKernel
)

func (m Mode) String() string {
	if m == PerNetworkKernel {
		return "per-network-kernel"
	}
	return "generic-kernel"
}

// Source-line model for the census: the original organization costs
// PerNetworkLines of kernel per attached network; the redesign costs
// a fixed GenericBaseLines plus a small per-network attachment stub.
const (
	PerNetworkLines    = 3500
	GenericBaseLines   = 800
	GenericPerNetLines = 60
)

// KernelLines reports the kernel source lines for n attached networks
// under each organization.
func KernelLines(m Mode, n int) int {
	if m == PerNetworkKernel {
		return PerNetworkLines * n
	}
	return GenericBaseLines + GenericPerNetLines*n
}

// Algorithm-body costs per frame.
const (
	bodyProtocol = 90 // full protocol processing for one frame
	bodyDemux    = 15 // generic header inspection and routing
)

// A Frame is one unit arriving on a multiplexed stream: a channel
// number and a payload.
type Frame struct {
	Channel int
	Payload []hw.Word
}

// A Network frames and unframes one multiplexed stream.
type Network interface {
	// Name identifies the network ("arpanet", "front-end").
	Name() string
	// Channels reports how many subchannels the stream multiplexes.
	Channels() int
	// Process performs the per-network protocol work for a frame,
	// returning the connection-ready data.
	Process(f Frame) ([]hw.Word, error)
}

// ErrBadChannel reports a frame for a channel the network does not
// multiplex.
var ErrBadChannel = errors.New("netmux: no such channel")

// A Delivery is one demultiplexed unit handed to a connection.
type Delivery struct {
	Network string
	Channel int
	Data    []hw.Word
}

// DefaultQueueCap bounds each (network, channel) delivery queue. A
// connection that stops receiving fills its own queue and loses its
// own frames — counted, never silent — while every other channel of
// the mux keeps flowing.
const DefaultQueueCap = 64

// Drop classes carried in EvNetDrop's Arg1.
const (
	// DropQueueFull: the channel's bounded delivery queue was full.
	DropQueueFull = 0
	// DropProtocol: the per-network protocol handler rejected the
	// frame after the demux routed it.
	DropProtocol = 1
	// DropNoCredit: the connection was out of flow-control credits
	// (emitted by the front-end processor, not the mux).
	DropNoCredit = 2
)

// Stats are the mux's delivery counters.
type Stats struct {
	// Delivered counts frames handed to a connection (queued or
	// consumed by a subscriber).
	Delivered int64
	// Dropped counts frames discarded because a channel's bounded
	// delivery queue was full.
	Dropped int64
	// ProtocolErrors counts frames the per-network protocol handler
	// rejected — work that was metered but produced no delivery.
	ProtocolErrors int64
}

// A Mux is the multiplexed-stream attachment point.
type Mux struct {
	Mode  Mode
	meter *hw.CostMeter

	mu       sync.Mutex
	networks map[string]Network
	order    []string
	// queues hold delivered data per (network, channel), each bounded
	// by queueCap.
	queues map[string]map[int][]Delivery
	// subs are per-network delivery subscribers: when set, deliveries
	// bypass the queues and go straight to the consumer (the
	// front-end processor's connection plane).
	subs      map[string]func(Delivery)
	queueCap  int
	delivered int64
	dropped   int64
	protoErrs int64
	trace     *trace.Recorder
}

// New returns a mux in the given organization.
func New(mode Mode, meter *hw.CostMeter) *Mux {
	return &Mux{
		Mode:     mode,
		meter:    meter,
		networks: make(map[string]Network),
		queues:   make(map[string]map[int][]Delivery),
		subs:     make(map[string]func(Delivery)),
		queueCap: DefaultQueueCap,
	}
}

// SetTrace routes the mux's frame and drop events to rec (nil turns
// tracing off). Events carry ModuleName; register it with the
// recorder.
func (m *Mux) SetTrace(rec *trace.Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trace = rec
}

// SetQueueCap rebounds the per-channel delivery queues (non-positive
// restores DefaultQueueCap). Existing queued deliveries are kept even
// if they exceed the new bound.
func (m *Mux) SetQueueCap(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		n = DefaultQueueCap
	}
	m.queueCap = n
}

// Subscribe registers fn as the network's delivery consumer:
// deliveries for that network are handed to fn instead of the
// per-channel queues, so a connection plane can route them without
// double buffering. One subscriber per network; fn runs without the
// mux lock held.
func (m *Mux) Subscribe(network string, fn func(Delivery)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.networks[network]; !ok {
		return fmt.Errorf("netmux: no network %s", network)
	}
	if m.subs[network] != nil {
		return fmt.Errorf("netmux: network %s already subscribed", network)
	}
	m.subs[network] = fn
	return nil
}

// Attach connects a network to the system.
func (m *Mux) Attach(n Network) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.networks[n.Name()]; ok {
		return fmt.Errorf("netmux: network %s already attached", n.Name())
	}
	m.networks[n.Name()] = n
	m.order = append(m.order, n.Name())
	m.queues[n.Name()] = make(map[int][]Delivery)
	return nil
}

// Networks returns the attached network names in attachment order.
func (m *Mux) Networks() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// KernelLines reports the kernel bulk of the current attachment set.
func (m *Mux) KernelLines() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return KernelLines(m.Mode, len(m.networks))
}

// Deliver processes one arriving frame. In the original organization
// the whole protocol runs in the kernel; in the redesign the kernel
// only demultiplexes, and the protocol body runs in the user ring
// (cpu, which may be nil, carries the ring crossings).
func (m *Mux) Deliver(cpu *hw.Processor, network string, f Frame) error {
	m.mu.Lock()
	n, ok := m.networks[network]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("netmux: no network %s", network)
	}
	if f.Channel < 0 || f.Channel >= n.Channels() {
		return fmt.Errorf("%w: %s channel %d", ErrBadChannel, network, f.Channel)
	}
	var data []hw.Word
	var err error
	var kernelCost int64
	switch m.Mode {
	case PerNetworkKernel:
		// Everything in ring zero: one handler per network.
		kernelCost = bodyProtocol
		err = m.gate(cpu, func() error {
			m.meter.AddBody(bodyProtocol, hw.PLI)
			data, err = n.Process(f)
			return err
		})
	case GenericKernel:
		// The kernel routes; the protocol runs as user code, then
		// hands the connection data back through a gate.
		kernelCost = bodyDemux
		if gerr := m.gate(cpu, func() error {
			m.meter.AddBody(bodyDemux, hw.PLI)
			return nil
		}); gerr != nil {
			return gerr
		}
		m.meter.AddBody(bodyProtocol, hw.PLI)
		data, err = n.Process(f)
	}
	if err != nil {
		// The frame's cost is already on the meter (the demux routed
		// it and the protocol body ran before rejecting); count and
		// trace the failure so the spent cycles are attributable
		// rather than vanishing with the error return.
		m.mu.Lock()
		m.protoErrs++
		tr := m.trace
		m.mu.Unlock()
		if tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvNetDrop, Module: ModuleName, Cost: kernelCost,
				Arg0: int64(f.Channel), Arg1: DropProtocol, Arg2: int64(len(f.Payload)),
			})
		}
		return err
	}
	d := Delivery{Network: network, Channel: f.Channel, Data: data}
	m.mu.Lock()
	sub := m.subs[network]
	tr := m.trace
	if sub == nil {
		q := m.queues[network]
		if len(q[f.Channel]) >= m.queueCap {
			// The channel's consumer fell behind: its own queue is
			// full, its own frame is lost. Other channels are
			// untouched — per-connection isolation is the point.
			m.dropped++
			depth := len(q[f.Channel])
			m.mu.Unlock()
			if tr != nil {
				tr.Emit(trace.Event{
					Kind: trace.EvNetDrop, Module: ModuleName, Cost: kernelCost,
					Arg0: int64(f.Channel), Arg1: DropQueueFull, Arg2: int64(depth),
				})
			}
			return nil
		}
		q[f.Channel] = append(q[f.Channel], d)
	}
	m.delivered++
	m.mu.Unlock()
	if tr != nil {
		consumed := int64(0)
		if sub != nil {
			consumed = 1
		}
		tr.Emit(trace.Event{
			Kind: trace.EvNetFrame, Module: ModuleName, Cost: kernelCost,
			Arg0: int64(f.Channel), Arg1: int64(len(data)), Arg2: consumed,
		})
	}
	if sub != nil {
		sub(d)
	}
	return nil
}

func (m *Mux) gate(cpu *hw.Processor, fn func() error) error {
	if cpu == nil {
		return fn()
	}
	cpu.GateModule = ModuleName
	return cpu.GateCall(hw.KernelRing, true, fn)
}

// Receive pops the next delivery for a connection.
func (m *Mux) Receive(network string, channel int) (Delivery, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queues[network]
	if !ok || len(q[channel]) == 0 {
		return Delivery{}, false
	}
	d := q[channel][0]
	q[channel] = q[channel][1:]
	return d, true
}

// Delivered reports the total frames delivered.
func (m *Mux) Delivered() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered
}

// MuxStats reports the delivery counters.
func (m *Mux) MuxStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Delivered: m.delivered, Dropped: m.dropped, ProtocolErrors: m.protoErrs}
}

// Arpanet is a simulated ARPANET attachment: frames carry a host-link
// header word the protocol strips and checksums.
type Arpanet struct {
	Links int
}

// Name implements Network.
func (a Arpanet) Name() string { return "arpanet" }

// Channels implements Network.
func (a Arpanet) Channels() int { return a.Links }

// Process strips the leader word and verifies its parity bit, the
// simulated NCP-style protocol work.
func (a Arpanet) Process(f Frame) ([]hw.Word, error) {
	if len(f.Payload) < 1 {
		return nil, errors.New("arpanet: frame without leader")
	}
	leader := f.Payload[0]
	var parity hw.Word
	for _, w := range f.Payload[1:] {
		parity ^= w
	}
	if leader&1 != parity&1 {
		return nil, errors.New("arpanet: leader parity mismatch")
	}
	return f.Payload[1:], nil
}

// FrontEnd is the simulated local front-end processor multiplexing
// terminals: frames carry characters with a trailing end-of-block
// sentinel.
type FrontEnd struct {
	Terminals int
}

// Name implements Network.
func (t FrontEnd) Name() string { return "front-end" }

// Channels implements Network.
func (t FrontEnd) Channels() int { return t.Terminals }

// Process strips the end-of-block sentinel and rejects unterminated
// blocks.
func (t FrontEnd) Process(f Frame) ([]hw.Word, error) {
	if len(f.Payload) == 0 || f.Payload[len(f.Payload)-1] != 0o777 {
		return nil, errors.New("front-end: unterminated block")
	}
	return f.Payload[:len(f.Payload)-1], nil
}

// InternodeOps bounds the internode opcode word; Internode rejects
// frames whose leading word is not a known operation.
const InternodeOps = 4

// Internode is the kernel-to-kernel stream: frames carry a leading
// operation word and an operation-specific body, and the protocol
// work is only validating the header — the segment machinery on the
// serving node does the rest, behind its own gate.
type Internode struct {
	Links int
}

// Name implements Network.
func (i Internode) Name() string { return "internode" }

// Channels implements Network.
func (i Internode) Channels() int { return i.Links }

// Process validates the operation header and passes the frame
// through.
func (i Internode) Process(f Frame) ([]hw.Word, error) {
	if len(f.Payload) == 0 {
		return nil, errors.New("internode: empty frame")
	}
	if op := f.Payload[0]; op >= InternodeOps {
		return nil, fmt.Errorf("internode: unknown operation %d", uint64(op))
	}
	return f.Payload, nil
}
