package workload

import (
	"fmt"
	"slices"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/uproc"
)

// The scenarios below are scripts, not storms: each runs on the
// caller's goroutine and ignores its executor (nil will do), exactly
// as the tool that owns it ran it, so that tool's output stays
// byte-identical.

// rootWorker makes a worker on k's first processor: a new process of
// principal with a file name, under acl, in the root.
func rootWorker(k *core.Kernel, principal, name string, acl directory.ACL) (*Worker, error) {
	p, err := k.CreateProcess(principal, aim.Bottom)
	if err != nil {
		return nil, err
	}
	w := &Worker{CPU: k.CPUs[0], Proc: p}
	k.Attach(w.CPU, p)
	if _, err := k.CreateFile(w.CPU, p, nil, name, acl, aim.Bottom); err != nil {
		return nil, err
	}
	w.Segno, err = k.OpenPath(w.CPU, p, []string{name})
	return w, err
}

// HotFile makes a worker on k's first processor: a new process of
// principal whose file "hot" in the root holds 1, 2, ... in the first
// word of each of its first pages pages.
func HotFile(k *core.Kernel, principal string, pages int) (*Worker, error) {
	w, err := rootWorker(k, principal, "hot", nil)
	for i := 0; err == nil && i < pages; i++ {
		err = k.Write(w.CPU, w.Proc, w.Segno, i*hw.PageWords, hw.Word(i+1))
	}
	return w, err
}

// RemoteSegment joins the kernel to a second, untraced node over the
// inter-node channel, reads and copies a segment the other node
// publishes, checking every word, and pushes a burst of terminal
// frames through the kernel's front-end plane.
func RemoteSegment() Scenario {
	return Scenario{
		Name: "remote-segment",
		Run: func(k *core.Kernel, _ uproc.Executor) error {
			return script(func(must func(error)) {
				node, err := k.AttachFNP(16, 4)
				must(err)
				rcfg := core.DefaultConfig()
				rcfg.RootQuota = 10000
				rk, err := core.Boot(rcfg)
				must(err)
				remote, err := rk.AttachFNP(16, 4)
				must(err)
				link, err := core.Connect(node, remote)
				must(err)
				const n = 32
				want := make([]hw.Word, n)
				pub, err := rootWorker(rk, "pub.x", "published", directory.Public(hw.Read|hw.Write))
				must(err)
				for i := range want {
					want[i] = hw.Word(0o400*i + 3)
					must(rk.Write(pub.CPU, pub.Proc, pub.Segno, i, want[i]))
				}
				got, err := link.RemoteRead([]string{"published"}, 0, n)
				must(err)
				if !slices.Equal(got, want) {
					must(fmt.Errorf("remote read %o, want %o", got, want))
				}
				mirror, err := rootWorker(k, "det.x", "mirror", nil)
				must(err)
				moved, err := link.RemoteCopy(mirror.CPU, mirror.Proc, []string{"published"}, 0, n, mirror.Segno, 0)
				must(err)
				if moved != n {
					must(fmt.Errorf("copied %d words, want %d", moved, n))
				}
				for i := 0; i < n; i++ {
					if w, err := k.Read(mirror.CPU, mirror.Proc, mirror.Segno, i); err != nil || w != want[i] {
						must(fmt.Errorf("copied word %d = %o (%v), want %o", i, w, err, want[i]))
					}
				}
				for i := 0; i < 6; i++ {
					must(node.Mux.Deliver(nil, "front-end", netmux.Frame{Channel: i, Payload: []hw.Word{hw.Word(i + 1), 0o777}}))
				}
				seen := 0
				for sh := 0; sh < node.Terminals.Shards(); sh++ {
					node.Terminals.Drain(sh, func(fnp.Delivery) { seen++ })
				}
				if seen != 6 {
					must(fmt.Errorf("drained %d terminal frames, want 6", seen))
				}
			})
		},
	}
}

// TraceTour is kerneltrace's script, which exercises every
// instrumented path: gates and pathname walks, quota-charged growth,
// enough paging pressure to evict, rereads that fetch from disk,
// truncation, and the two-level scheduler's dispatches, process swaps
// and queue messages.
func TraceTour() Scenario {
	return Scenario{
		Name: "trace-tour",
		Run: func(k *core.Kernel, _ uproc.Executor) error {
			return script(func(must func(error)) {
				cpu := k.CPUs[0]
				p, err := k.CreateProcess("tracer.sys", aim.Bottom)
				must(err)
				k.Attach(cpu, p)
				// A small tree, walked in the user ring: gate crossings
				// per component.
				var path []string
				for i := 0; i < 3; i++ {
					name := fmt.Sprintf("d%d", i)
					_, err := k.CreateDir(cpu, p, path, name, directory.Public(hw.Read|hw.Write), aim.Bottom)
					must(err)
					path = append(path, name)
				}
				// Three segments grown past primary memory: quota checks
				// on every added page, then evictions with disk
				// write-backs.
				var segnos []int
				for f := 0; f < 3; f++ {
					name := fmt.Sprintf("f%d", f)
					_, err := k.CreateFile(cpu, p, path, name, nil, aim.Bottom)
					must(err)
					segno, err := k.OpenPath(cpu, p, append(append([]string{}, path...), name))
					must(err)
					segnos = append(segnos, segno)
					for i := 0; i < 40; i++ {
						must(k.Write(cpu, p, segno, i*hw.PageWords, hw.Word(f*100+i+1)))
					}
				}
				// Reread everything: missing-page faults served from disk.
				for _, segno := range segnos {
					for i := 0; i < 40; i++ {
						_, err := k.Read(cpu, p, segno, i*hw.PageWords)
						must(err)
					}
				}
				// Truncate one segment: quota released.
				must(k.Truncate(cpu, p, segnos[0], 5))
				for i := 0; i < 3; i++ {
					_, err := k.CreateProcess(fmt.Sprintf("user%d.x", i), aim.Bottom)
					must(err)
				}
				_, err = k.Procs.RunQuantum(20, func(*uproc.Process) {})
				must(err)
			})
		},
	}
}

// FileUsers is multicsim's scripted timesharing workload: users users,
// spread round-robin over the processors, each build a home directory
// of files files, write pages pages of each and read them back.
func FileUsers(users, files, pages int) Scenario {
	return Scenario{
		Name: "file-users",
		Run: func(k *core.Kernel, _ uproc.Executor) error {
			return script(func(must func(error)) {
				for u := 0; u < users; u++ {
					p, err := k.CreateProcess(fmt.Sprintf("user%d.proj", u), aim.Bottom)
					must(err)
					cpu := k.CPUs[u%len(k.CPUs)]
					k.Attach(cpu, p)
					home := fmt.Sprintf("user%d", u)
					_, err = k.CreateDir(cpu, p, nil, home, directory.Public(hw.Read|hw.Write), aim.Bottom)
					must(err)
					for f := 0; f < files; f++ {
						name := fmt.Sprintf("file%d", f)
						_, err := k.CreateFile(cpu, p, []string{home}, name, nil, aim.Bottom)
						must(err)
						segno, err := k.OpenPath(cpu, p, []string{home, name})
						must(err)
						for pg := 0; pg < pages; pg++ {
							must(k.Write(cpu, p, segno, pg*hw.PageWords+pg, hw.Word(u*100+f*10+pg)))
						}
						for pg := 0; pg < pages; pg++ {
							w, err := k.Read(cpu, p, segno, pg*hw.PageWords+pg)
							must(err)
							if w != hw.Word(u*100+f*10+pg) {
								must(fmt.Errorf("verify: user %d file %d page %d: got %d", u, f, pg, w))
							}
						}
					}
				}
			})
		},
	}
}

// A PlaneResult is what only the connection plane knows.
type PlaneResult struct {
	Node *core.NetNode
	// Offered counts the frames delivered to the demultiplexer, and
	// SlowDrops the drops on the slow lines.
	Offered, SlowDrops int64
}

// ConnectionPlane is multicsim's connection plane: it attaches a
// front-end processor with conns lines and delivers a frame to every
// line per round for enough rounds to overflow an uncredited window.
// After each round the consumers drain the sharded table and return
// credits, except on the first slow lines, whose consumers never
// credit: those lines exhaust their windows and drop, every other line
// rides through untouched.
func ConnectionPlane(conns, slow int) (Scenario, *PlaneResult) {
	res := new(PlaneResult)
	return Scenario{
		Name: "connection-plane",
		Run: func(k *core.Kernel, _ uproc.Executor) error {
			return script(func(must func(error)) {
				node, err := k.AttachFNP(conns, 0)
				must(err)
				*res = PlaneResult{Node: node}
				terms := node.Terminals
				for r := 0; r < fnp.RingSlots+2; r++ {
					for id := 0; id < conns; id++ {
						must(node.Mux.Deliver(k.CPUs[0], "front-end", netmux.Frame{Channel: id, Payload: []hw.Word{hw.Word(r + 1), 0o777}}))
						res.Offered++
					}
					for sh := 0; sh < terms.Shards(); sh++ {
						for d, ok := terms.Next(sh); ok; d, ok = terms.Next(sh) {
							if d.Conn >= slow {
								terms.Credit(d.Conn)
							}
						}
					}
				}
				for id := 0; id < slow; id++ {
					res.SlowDrops += terms.ConnStats(id).Drops
				}
			})
		},
	}, res
}
