package main

import (
	"fmt"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/uproc"
)

// terminal_mix shape: frames arrive in bursts of termBurst to
// seeded-random lines, and every shard is drained after each burst, so
// a frame's latency is its own burst's work and not a backlog. Lines
// below the dialog count cycle login, termIOLines IO lines and logout
// through the answering service's connector; every termRemoteEvery-th
// frame's consumer reads termRemoteWords words from a second kernel
// over the internode link. A batch is one burst.
const (
	termBurst        = 64
	termIOLines      = 3
	termRemoteEvery  = 1024
	termRemoteWords  = 64
	termRemoteFile   = 2 * hw.PageWords
	termPassword     = "dialog-pw"
	termEndOfBlock   = 0o777
	termFrontEnd     = "front-end"
	termRemoteName   = "pub"
	termRemoteWriter = "owner.x"
)

var termRemotePath = []string{termRemoteName}

type termSize struct{ lines, dialog, warmup, sim int }

var (
	termFull = termSize{lines: 65536, dialog: 256, warmup: 256, sim: 16384}
	termTiny = termSize{lines: 1024, dialog: 16, warmup: 4, sim: 32}
)

// Frame kinds: a data frame on a plain line, or one of a dialog line's
// commands.
const (
	kindData = iota
	kindLogin
	kindIO
	kindLogout
)

// A termSlot is one frame of the current burst.
type termSlot struct {
	conn, kind int
	start      int64
	done       bool
}

type terminalMix struct {
	h      *harness
	sz     termSize
	k, rk  *core.Kernel
	node   *core.NetNode
	rnode  *core.NetNode
	link   *core.Link
	svc    *answering.Service
	conn   *answering.Connector
	rng    *rng
	remote []hw.Word

	// Dialog lines: each line's login frame, the shared IO and logout
	// frames, and where each line is in its cycle (0 login, 1..3 IO,
	// 4 logout).
	loginFrames     [][]hw.Word
	ioFrame, outFrm []hw.Word
	step            []uint8

	// The current burst: its slots, each data frame's payload buffer,
	// the frames already aimed at each line (a line never gets more
	// than its credit window per burst), and the dialog slots in order.
	seq         int64
	slots       [termBurst]termSlot
	bufs        [termBurst][2]hw.Word
	inBurst     []uint8
	dialogSlots []int
	// consume is deliver as a func value, made once so that draining a
	// shard allocates nothing; err is the first failure it saw.
	consume func(fnp.Delivery)
	err     error
}

func setupTerminalMix(h *harness, seed int64, tiny bool) (instance, error) {
	sz := termFull
	if tiny {
		sz = termTiny
	}
	w := &terminalMix{h: h, sz: sz, rng: newRNG(seed, 4), inBurst: make([]uint8, sz.lines)}
	var err error
	w.k, err = h.boot(seed, func(c *core.Config) {
		c.ASTPages = (sz.dialog+256)/128 + 2
		c.WiredFrames = c.ASTPages + 6
		c.MemFrames = sz.dialog + 256 + c.WiredFrames
	})
	if err != nil {
		return nil, err
	}
	if w.node, err = w.k.AttachFNP(sz.lines, 0); err != nil {
		return nil, err
	}
	if w.rk, err = h.boot(seed+1, nil); err != nil {
		return nil, err
	}
	if w.rnode, err = w.rk.AttachFNP(1, 0); err != nil {
		return nil, err
	}
	if w.link, err = core.Connect(w.node, w.rnode); err != nil {
		return nil, err
	}
	if err := w.writeRemoteFile(); err != nil {
		return nil, err
	}

	w.svc = answering.New(answering.Split, w.k.Meter, w.create)
	w.conn = answering.NewConnector(w.svc, w.destroy)
	for i := 0; i < sz.dialog; i++ {
		name := answering.StormPrincipal(i)
		if err := w.svc.Register(name, termPassword, aim.Top); err != nil {
			return nil, err
		}
		w.loginFrames = append(w.loginFrames, append(answering.EncodeLine("login "+name+" "+termPassword), termEndOfBlock))
	}
	w.ioFrame = append(answering.EncodeLine("print status"), termEndOfBlock)
	w.outFrm = append(answering.EncodeLine("logout"), termEndOfBlock)
	w.step = make([]uint8, sz.dialog)
	w.consume = w.deliver
	for b := 0; b < sz.warmup; b++ {
		if _, err := w.batch(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// writeRemoteFile creates the file remote reads are served from,
// readable by the link's serving principal.
func (w *terminalMix) writeRemoteFile() error {
	k := w.rk
	p, err := k.CreateProcess(termRemoteWriter, aim.Bottom)
	if err != nil {
		return err
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	if _, err := k.CreateFile(cpu, p, nil, termRemoteName, directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		return err
	}
	segno, err := k.OpenPath(cpu, p, termRemotePath)
	if err != nil {
		return err
	}
	w.remote = make([]hw.Word, termRemoteFile)
	for i := range w.remote {
		w.remote[i] = w.rng.word()
		if err := k.Write(cpu, p, segno, i, w.remote[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *terminalMix) clock() int64 { return w.k.Meter.Cycles() + w.rk.Meter.Cycles() }

func (w *terminalMix) create(principal string, label aim.Label) (any, error) {
	w.h.tr.begin(0, spCreate, w.seq)
	p, err := w.k.Procs.Create(principal, label)
	w.h.tr.end(0)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (w *terminalMix) destroy(proc any) error {
	w.h.tr.begin(0, spDestroy, w.seq)
	err := w.k.Procs.Destroy(proc.(*uproc.Process))
	w.h.tr.end(0)
	return err
}

// pickLine draws the next frame's line, skipping lines whose credit
// window this burst has already filled.
func (w *terminalMix) pickLine() int {
	for {
		line := w.rng.intn(w.sz.lines)
		if w.inBurst[line] < fnp.RingSlots {
			w.inBurst[line]++
			return line
		}
	}
}

// frameFor returns the payload of slot s aimed at line, and its kind.
func (w *terminalMix) frameFor(s, line int) ([]hw.Word, int) {
	if line >= w.sz.dialog {
		b := &w.bufs[s]
		b[0], b[1] = hw.Word(w.seq+int64(s)).Masked(), termEndOfBlock
		return b[:], kindData
	}
	w.dialogSlots = append(w.dialogSlots, s)
	st := w.step[line]
	w.step[line] = (st + 1) % (termIOLines + 2)
	switch st {
	case 0:
		return w.loginFrames[line], kindLogin
	case termIOLines + 1:
		return w.outFrm, kindLogout
	}
	return w.ioFrame, kindIO
}

func (w *terminalMix) batch() (int, error) {
	h := w.h
	terms := w.node.Terminals
	w.dialogSlots = w.dialogSlots[:0]
	for s := range w.slots {
		line := w.pickLine()
		payload, kind := w.frameFor(s, line)
		w.slots[s] = termSlot{conn: line, kind: kind, start: w.clock()}
		h.tr.begin(0, spDeliver, w.seq+int64(s))
		err := w.node.Mux.Deliver(w.k.CPUs[0], termFrontEnd, netmux.Frame{Channel: line, Payload: payload})
		h.tr.end(0)
		if err != nil {
			return 0, fmt.Errorf("deliver frame %d: %w", w.seq+int64(s), err)
		}
	}
	for sh := 0; sh < terms.Shards(); sh++ {
		h.tr.begin(0, spDrain, w.seq)
		terms.Drain(sh, w.consume)
		h.tr.end(0)
	}
	if w.err != nil {
		return 0, w.err
	}
	for s := range w.slots {
		if !w.slots[s].done {
			return 0, fmt.Errorf("frame %d to line %d was never delivered", w.seq+int64(s), w.slots[s].conn)
		}
		w.inBurst[w.slots[s].conn] = 0
	}
	w.seq += termBurst
	return termBurst, nil
}

// deliver is the consumer: it matches each delivery to its slot,
// checks a data frame's contents or runs a dialog frame through the
// connector, serves a remote read when the frame calls for one, and
// records the frame's latency.
func (w *terminalMix) deliver(d fnp.Delivery) {
	if w.err != nil {
		return
	}
	h := w.h
	s, err := w.slotOf(d)
	if err != nil {
		w.err = err
		return
	}
	seq := w.seq + int64(s)
	if kind := w.slots[s].kind; kind != kindData {
		h.tr.begin(0, spHandleFrame, seq)
		err := w.conn.HandleFrame(d.Conn, d.Data)
		h.tr.end(0)
		if err != nil {
			h.failed++
			if kind == kindLogin {
				h.loginFailures++
			}
			w.err = fmt.Errorf("line %d frame %d: %w", d.Conn, seq, err)
			return
		}
	}
	w.slots[s].done = true
	if seq%termRemoteEvery == termRemoteEvery-1 {
		if err := w.remoteRead(seq); err != nil {
			h.failed++
			w.err = err
			return
		}
	}
	h.record(w.clock() - w.slots[s].start)
}

// slotOf finds the burst slot a delivery came from. A data frame
// carries its sequence number; a line's dialog frames arrive in the
// order they were sent.
func (w *terminalMix) slotOf(d fnp.Delivery) (int, error) {
	if d.Conn < w.sz.dialog {
		for _, s := range w.dialogSlots {
			if w.slots[s].conn == d.Conn && !w.slots[s].done {
				return s, nil
			}
		}
		return 0, fmt.Errorf("unexpected dialog frame on line %d", d.Conn)
	}
	if len(d.Data) == 1 {
		s := int64(d.Data[0]) - w.seq
		if s >= 0 && s < termBurst && w.slots[s].conn == d.Conn && !w.slots[s].done {
			return int(s), nil
		}
	}
	return 0, fmt.Errorf("line %d delivered %v, which no frame of burst %d carried", d.Conn, d.Data, w.seq/termBurst)
}

// remoteRead reads a random window of the remote file over the link
// and checks it against what set-up wrote.
func (w *terminalMix) remoteRead(seq int64) error {
	off := w.rng.intn(termRemoteFile - termRemoteWords)
	w.h.tr.begin(0, spRemoteRead, seq)
	data, err := w.link.RemoteRead(termRemotePath, off, termRemoteWords)
	w.h.tr.end(0)
	if err != nil {
		return fmt.Errorf("remote read at %d: %w", off, err)
	}
	for i, v := range data {
		if v != w.remote[off+i] {
			return fmt.Errorf("remote word %d read back %#o, wrote %#o", off+i, v, w.remote[off+i])
		}
	}
	return nil
}

func (w *terminalMix) simBatches() int         { return w.sz.sim }
func (w *terminalMix) kernels() []*core.Kernel { return []*core.Kernel{w.k, w.rk} }
func (w *terminalMix) nodes() []*core.NetNode  { return []*core.NetNode{w.node, w.rnode} }

// check verifies the connection plane: no line dropped a frame (none
// is flooded), no frame failed its protocol, and the connector's
// sessions balance — logins equal logouts plus open sessions, and the
// open sessions are exactly the dialog lines mid-cycle.
func (w *terminalMix) check() error {
	for _, n := range w.nodes() {
		if st := n.Mux.MuxStats(); st.Dropped != 0 || st.ProtocolErrors != 0 {
			return fmt.Errorf("mux dropped %d frames and rejected %d", st.Dropped, st.ProtocolErrors)
		}
		for _, f := range []*fnp.FNP{n.Terminals, n.Inter} {
			if st := f.Stats(); st.Drops != 0 {
				return fmt.Errorf("connection plane dropped %d frames with no line flooded", st.Drops)
			}
		}
	}
	open, mid := 0, 0
	for line := 0; line < w.sz.dialog; line++ {
		if w.conn.Session(line) != nil {
			open++
		}
		if w.step[line] != 0 {
			mid++
		}
	}
	st := w.conn.Stats()
	if st.Logins != st.Logouts+int64(open) {
		return fmt.Errorf("connector: %d logins, %d logouts, %d open sessions", st.Logins, st.Logouts, open)
	}
	if open != mid {
		return fmt.Errorf("%d open sessions, but %d dialog lines are mid-cycle", open, mid)
	}
	return nil
}
