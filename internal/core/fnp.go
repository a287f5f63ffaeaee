package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"multics/internal/aim"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/trace"
	"multics/internal/uproc"
)

// InternodeModule names the inter-node segment channel in kernel
// traces; AttachFNP registers it alongside the demux and the
// connection plane.
const InternodeModule = "internode-channel"

// bodyRemoteServe is the per-request algorithm body of the
// remote-segment gate: parsing, validation and reply framing (the
// segment references themselves are charged by the managers).
const bodyRemoteServe = 25

// Internode channel assignments: one link multiplexes a request
// stream and a reply stream.
const (
	interLinks  = 2
	chanRequest = 0
	chanReply   = 1
)

// Internode operation words (netmux.Internode validates them).
const (
	opRead  = 0
	opReply = 1
)

// NetPrincipal is the serving process a Connect creates on the remote
// node: remote segment traffic runs with its identity, so ACLs and
// mandatory labels govern inter-node reads exactly as local ones.
const NetPrincipal = "netd.sys"

// A NetNode is one kernel's attachment to the network plane: the
// generic demultiplexer, the terminal connection plane it feeds, and
// the small internode connection table.
type NetNode struct {
	K *Kernel
	// Mux is the kernel-resident demultiplexer (GenericKernel mode:
	// the redesign's organization).
	Mux *netmux.Mux
	// Terminals is the front-end processor's connection plane; frame
	// channel numbers are connection ids.
	Terminals *fnp.FNP
	// Inter is the internode connection table: channel 0 carries
	// requests, channel 1 replies.
	Inter *fnp.FNP

	interAttached bool
}

// AttachFNP wires a front-end communications processor to the kernel:
// a generic-kernel mux with a front-end network of `connections`
// terminals, subscribed into a sharded connection plane of the same
// size. shards zero selects the default. The kernel's trace recorder,
// when on, gains the network module names and both planes' events.
func (k *Kernel) AttachFNP(connections, shards int) (*NetNode, error) {
	if k.Trace != nil {
		k.Trace.Register(netmux.ModuleName, fnp.ModuleName, InternodeModule)
	}
	mux := netmux.New(netmux.GenericKernel, k.Meter, k.Trace)
	if err := mux.Attach(netmux.FrontEnd{Terminals: connections}); err != nil {
		return nil, err
	}
	terms, err := fnp.New(fnp.Config{Connections: connections, Shards: shards, Meter: k.Meter, Trace: k.Trace})
	if err != nil {
		return nil, err
	}
	if err := mux.Subscribe("front-end", terms.Subscriber()); err != nil {
		return nil, err
	}
	inter, err := fnp.New(fnp.Config{Connections: interLinks, Shards: 1, Meter: k.Meter, Trace: k.Trace})
	if err != nil {
		return nil, err
	}
	return &NetNode{K: k, Mux: mux, Terminals: terms, Inter: inter}, nil
}

// ensureInternode attaches and subscribes the internode network once.
func (n *NetNode) ensureInternode() error {
	if n.interAttached {
		return nil
	}
	if err := n.Mux.Attach(netmux.Internode{Links: interLinks}); err != nil {
		return err
	}
	if err := n.Mux.Subscribe("internode", n.Inter.Subscriber()); err != nil {
		return err
	}
	n.interAttached = true
	return nil
}

// A Link is a one-way inter-node segment channel: the local node
// issues remote reads and copies, the remote node serves them from
// its own hierarchy behind the remote-segment gate. Connect twice,
// with the nodes swapped, for two-way traffic.
type Link struct {
	local, remote *NetNode
	// server is the remote node's serving process; every request runs
	// with its identity on the remote node's last processor.
	server    *uproc.Process
	serverCPU *hw.Processor

	// mu serialises round trips; req and reply are the request and
	// reply frames' buffers, which every round trip reuses.
	mu         sync.Mutex
	req, reply []hw.Word
}

// Connect wires the inter-node channel between two attached nodes and
// creates the serving process on the remote one.
func Connect(local, remote *NetNode) (*Link, error) {
	if local == nil || remote == nil || local == remote {
		return nil, errors.New("core: a link needs two distinct nodes")
	}
	if err := local.ensureInternode(); err != nil {
		return nil, err
	}
	if err := remote.ensureInternode(); err != nil {
		return nil, err
	}
	server, err := remote.K.CreateProcess(NetPrincipal, aim.Bottom)
	if err != nil {
		return nil, fmt.Errorf("core: creating %s on the remote node: %w", NetPrincipal, err)
	}
	return &Link{
		local:     local,
		remote:    remote,
		server:    server,
		serverCPU: remote.K.CPUs[len(remote.K.CPUs)-1],
	}, nil
}

// appendPath packs a '>'-separated pathname one character per word
// onto buf.
func appendPath(buf []hw.Word, path []string) []hw.Word {
	for i, name := range path {
		if i > 0 {
			buf = append(buf, '>')
		}
		for j := 0; j < len(name); j++ {
			buf = append(buf, hw.Word(name[j]))
		}
	}
	return buf
}

// decodePath is appendPath's inverse. A word that is not a character
// (a byte, as appendPath writes one) is refused: truncated, it would
// read as another character, a '>' among them, and name a path its
// words do not spell.
func decodePath(words []hw.Word) ([]string, error) {
	if len(words) == 0 {
		return nil, nil
	}
	var b strings.Builder
	b.Grow(len(words))
	for _, w := range words {
		if w > 0xff {
			return nil, fmt.Errorf("core: remote path word %#o is not a character", w)
		}
		b.WriteByte(byte(w))
	}
	return strings.Split(b.String(), ">"), nil
}

// RemoteSegServe is the remote-segment gate: the single entry through
// which a request arriving on the inter-node channel touches the
// local hierarchy. The serving process's principal and label govern
// every access — the pathname walk, the ACL check at initiation, and
// the word references all go through the same gates a local process
// uses. The reply frame carries a status word and the data; it is
// written over reply's storage (grown when too small) and returned.
func (k *Kernel) RemoteSegServe(cpu *hw.Processor, p *uproc.Process, req, reply []hw.Word) ([]hw.Word, error) {
	k.Meter.AddBody(InternodeModule, bodyRemoteServe, hw.PLI)
	refuse := append(reply[:0], opReply, 1)
	if len(req) < 3 || req[0] != opRead {
		return refuse, errors.New("core: malformed remote segment request")
	}
	off, n := int(req[1]), int(req[2])
	path, err := decodePath(req[3:])
	if err != nil {
		return refuse, err
	}
	if n < 0 || n > hw.PageWords*16 {
		return refuse, fmt.Errorf("core: remote read of %d words refused", n)
	}
	segno, err := k.OpenPath(cpu, p, path)
	if err != nil {
		return refuse, err
	}
	out := slices.Grow(reply[:0], 2+n)
	out = append(out, opReply, 0)
	for i := 0; i < n; i++ {
		w, err := k.Read(cpu, p, segno, off+i)
		if err != nil {
			return append(out[:0], opReply, 1), err
		}
		out = append(out, w)
	}
	if k.Trace != nil {
		k.Trace.Emit(trace.Event{
			Kind: trace.EvRemoteSeg, Module: InternodeModule,
			Arg0: opRead, Arg1: int64(n), Arg2: chanRequest,
		})
	}
	return out, nil
}

// roundTrip carries the request in l.req over the mux to the remote
// node, serves it there into l.reply, and carries the reply back —
// every hop through the demultiplexer and the internode connection
// tables. Called with l.mu held; the returned data aliases l.reply.
func (l *Link) roundTrip() ([]hw.Word, error) {
	// Request out: demuxed on the remote node, into its internode
	// connection table.
	if err := l.remote.Mux.Deliver(l.serverCPU, "internode", netmux.Frame{Channel: chanRequest, Payload: l.req}); err != nil {
		return nil, fmt.Errorf("core: internode request: %w", err)
	}
	// The delivery above queued the request synchronously, so the
	// remote serving process finds it on the first pop.
	rk := l.remote.K
	d, ok := l.remote.Inter.Next(l.remote.Inter.ShardOf(chanRequest))
	if !ok {
		return nil, errors.New("core: internode request lost")
	}
	rk.Attach(l.serverCPU, l.server)
	reply, serr := rk.RemoteSegServe(l.serverCPU, l.server, d.Data, l.reply)
	l.reply = reply
	l.remote.Inter.Credit(d.Conn)
	// Reply back: demuxed on the local node. The client has no
	// process of its own; the crossing is kernel-internal.
	if err := l.local.Mux.Deliver(nil, "internode", netmux.Frame{Channel: chanReply, Payload: reply}); err != nil {
		return nil, fmt.Errorf("core: internode reply: %w", err)
	}
	rd, ok := l.local.Inter.Next(l.local.Inter.ShardOf(chanReply))
	if !ok {
		return nil, errors.New("core: internode reply lost")
	}
	l.local.Inter.Credit(rd.Conn)
	if serr != nil {
		return nil, fmt.Errorf("core: remote node refused: %w", serr)
	}
	if len(rd.Data) < 2 || rd.Data[0] != opReply || rd.Data[1] != 0 {
		return nil, errors.New("core: malformed internode reply")
	}
	return rd.Data[2:], nil
}

// RemoteRead reads n words starting at off from the file at path on
// the remote node. The remote ACLs apply: the file must be readable
// by the link's serving principal. The words returned live in the
// link's reply buffer: they are valid until the link's next round
// trip, and a caller that keeps them must copy them.
func (l *Link) RemoteRead(path []string, off, n int) ([]hw.Word, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.read(path, off, n)
}

// read is RemoteRead with l.mu held.
func (l *Link) read(path []string, off, n int) ([]hw.Word, error) {
	l.req = appendPath(append(l.req[:0], opRead, hw.Word(off), hw.Word(n)), path)
	data, err := l.roundTrip()
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("core: remote read returned %d words, want %d", len(data), n)
	}
	if l.local.K.Trace != nil {
		l.local.K.Trace.Emit(trace.Event{
			Kind: trace.EvRemoteSeg, Module: InternodeModule,
			Arg0: opRead, Arg1: int64(n), Arg2: chanReply,
		})
	}
	return data, nil
}

// RemoteCopy reads n words at off from the remote file at remotePath
// and writes them into the local segment opened at segno for (cpu,
// p), starting at local offset dstOff. It returns the words moved.
// The link is held across the local writes, so no other round trip
// overwrites the reply they copy from.
func (l *Link) RemoteCopy(cpu *hw.Processor, p *uproc.Process, remotePath []string, off, n int, segno, dstOff int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := l.read(remotePath, off, n)
	if err != nil {
		return 0, err
	}
	for i, w := range data {
		if err := l.local.K.Write(cpu, p, segno, dstOff+i, w); err != nil {
			return i, err
		}
	}
	if l.local.K.Trace != nil {
		l.local.K.Trace.Emit(trace.Event{
			Kind: trace.EvRemoteSeg, Module: InternodeModule,
			Arg0: 1, Arg1: int64(len(data)), Arg2: chanReply,
		})
	}
	return len(data), nil
}
