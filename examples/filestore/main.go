// Filestore: the specialization the paper's conclusion weighs — "a
// computer system dedicated to just file storage and management" with
// no general-purpose user programming. Requests arrive as frames on
// the network multiplexer, a small fixed set of service processes
// executes them against the kernel's file system, and the paper's
// open questions are visible: the quota, naming-vs-protection, and
// accounting conflicts all remain even without user programs.
package main

import (
	"fmt"
	"log"

	"multics"
	"multics/internal/audit"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/uproc"
)

// Request opcodes carried in the first payload word.
const (
	opCreate = 1
	opWrite  = 2
	opRead   = 3
	opList   = 4
)

// A server executes file-store requests on behalf of one network
// connection, inside a dedicated service process.
type server struct {
	k    *multics.Kernel
	cpu  *hw.Processor
	proc *uproc.Process
	// open segment numbers by file index
	segs map[hw.Word]int
}

func (s *server) handle(data []hw.Word) (string, error) {
	if len(data) < 2 {
		return "", fmt.Errorf("short request")
	}
	op, file := data[0], data[1]
	name := fmt.Sprintf("file%d", file)
	switch op {
	case opCreate:
		if _, err := s.k.CreateFile(s.cpu, s.proc, []string{"store"}, name, multics.Public(multics.Read|multics.Write), multics.Bottom); err != nil {
			return "", err
		}
		return "created " + name, nil
	case opWrite:
		if len(data) < 4 {
			return "", fmt.Errorf("short write")
		}
		segno, err := s.open(file, name)
		if err != nil {
			return "", err
		}
		if err := s.k.Write(s.cpu, s.proc, segno, int(data[2]), data[3]); err != nil {
			return "", err
		}
		return fmt.Sprintf("wrote %s+%d", name, data[2]), nil
	case opRead:
		if len(data) < 3 {
			return "", fmt.Errorf("short read")
		}
		segno, err := s.open(file, name)
		if err != nil {
			return "", err
		}
		w, err := s.k.Read(s.cpu, s.proc, segno, int(data[2]))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s+%d = %d", name, data[2], w), nil
	case opList:
		id, err := s.k.WalkPath(s.cpu, s.proc, []string{"store"})
		if err != nil {
			return "", err
		}
		names, err := s.k.Dirs.List("fileserver.daemon", multics.Bottom, id)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d files: %v", len(names), names), nil
	default:
		return "", fmt.Errorf("bad op %d", op)
	}
}

func (s *server) open(file hw.Word, name string) (int, error) {
	if segno, ok := s.segs[file]; ok {
		return segno, nil
	}
	segno, err := s.k.OpenPath(s.cpu, s.proc, []string{"store", name})
	if err != nil {
		return 0, err
	}
	s.segs[file] = segno
	return segno, nil
}

func main() {
	k, err := multics.Boot(multics.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The fixed service processes — in a dedicated file store one
	// might fix the process count outright (the paper doubts even
	// that, but a file store gets closest).
	const nServers = 2
	var servers []*server
	for i := 0; i < nServers; i++ {
		proc, err := k.CreateProcess("fileserver.daemon", multics.Bottom)
		if err != nil {
			log.Fatal(err)
		}
		cpu := k.CPUs[i%len(k.CPUs)]
		k.Attach(cpu, proc)
		servers = append(servers, &server{k: k, cpu: cpu, proc: proc, segs: make(map[hw.Word]int)})
	}
	cpu0 := servers[0].cpu
	if _, err := k.CreateDir(cpu0, servers[0].proc, nil, "store", multics.Public(multics.Read|multics.Write), multics.Bottom); err != nil {
		log.Fatal(err)
	}

	// Requests arrive on the generic network demultiplexer — the
	// residue the redesign leaves in the kernel.
	mux := netmux.New(netmux.GenericKernel, k.Meter, nil)
	if err := mux.Attach(netmux.Arpanet{Links: nServers}); err != nil {
		log.Fatal(err)
	}

	requests := [][]hw.Word{
		{opCreate, 0},
		{opCreate, 1},
		{opWrite, 0, 5, 111},
		{opWrite, 1, 2048, 222},
		{opRead, 0, 5},
		{opRead, 1, 2048},
		{opRead, 0, 9000}, // a hole: zero
		{opList, 0},
	}
	for i, req := range requests {
		link := i % nServers
		// Frame the request ARPANET-style (leader parity word).
		var parity hw.Word
		for _, w := range req {
			parity ^= w
		}
		frame := netmux.Frame{Channel: link, Payload: append([]hw.Word{parity & 1}, req...)}
		if err := mux.Deliver(cpu0, "arpanet", frame); err != nil {
			log.Fatal(err)
		}
		d, ok := mux.Receive("arpanet", link)
		if !ok {
			log.Fatal("no delivery")
		}
		reply, err := servers[link].handle(d.Data)
		if err != nil {
			reply = "error: " + err.Error()
		}
		fmt.Printf("req %d via link %d: %s\n", i, link, reply)
	}

	fmt.Printf("\nnetwork kernel residue: %d lines; file store ran with %d fixed service processes\n",
		mux.KernelLines(), nServers)

	// Even here, the paper's conflicts remain: storage accounting
	// still moves on reads of zero pages, quota still charges, and
	// the audit still has the whole kernel to cover.
	report := audit.Run(k)
	if report.Clean() {
		fmt.Println("post-workload audit: clean")
	} else {
		fmt.Print(report)
	}
	fmt.Println("\n(the paper estimates specializing the kernel to this configuration")
	fmt.Println(" would shed at most another 15-25% of its bulk — most removable")
	fmt.Println(" function is already out)")
}
