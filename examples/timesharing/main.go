// Timesharing: a full computer-utility session. Users log in through
// the split answering service (authentication in the small trusted
// part), get processes scheduled by the two-level multiplexer, link
// to a shared library through the user-ring dynamic linker, receive
// terminal traffic through the generic network demultiplexer, and are
// accounted for at logout.
package main

import (
	"fmt"
	"log"

	"multics"
	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/hw"
	"multics/internal/linker"
	"multics/internal/netmux"
	"multics/internal/uproc"
)

func main() {
	k, err := multics.Boot(multics.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The split answering service: only the authentication residue
	// is trusted.
	svc := answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
		return k.CreateProcess(principal, label)
	})
	for _, u := range []struct{ name, pw string }{
		{"alice.sys", "m00n"}, {"bob.dev", "s3cret"}, {"carol.ops", "pa55"},
	} {
		if err := svc.Register(u.name, u.pw, aim.Top); err != nil {
			log.Fatal(err)
		}
	}

	// A failed login reveals nothing about which part was wrong.
	if _, err := svc.Login("mallory.x", "guess", multics.Bottom); err != nil {
		fmt.Println("mallory:", err)
	}

	// Three real sessions.
	var sessions []*answering.Session
	for _, u := range []struct{ name, pw string }{
		{"alice.sys", "m00n"}, {"bob.dev", "s3cret"}, {"carol.ops", "pa55"},
	} {
		sess, err := svc.Login(u.name, u.pw, multics.Bottom)
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, sess)
		fmt.Printf("%s logged in (trusted answering-service residue: %d lines)\n",
			u.name, answering.KernelLines(answering.Split))
	}

	// A shared library; each user links to it dynamically from the
	// user ring.
	alice := sessions[0].Process.(*uproc.Process)
	cpu := k.CPUs[0]
	k.Attach(cpu, alice)
	if _, err := k.CreateDir(cpu, alice, nil, "lib", multics.Public(multics.Read|multics.Write), multics.Bottom); err != nil {
		log.Fatal(err)
	}
	for _, sym := range []string{"sqrt_", "sort_", "format_"} {
		if _, err := k.CreateFile(cpu, alice, []string{"lib"}, sym, multics.Public(multics.Read|multics.Execute), multics.Bottom); err != nil {
			log.Fatal(err)
		}
	}
	for _, sess := range sessions {
		p := sess.Process.(*uproc.Process)
		k.Attach(cpu, p)
		l := linker.New(linker.UserRing, k.Meter, func(symbol string) (linker.Target, error) {
			segno, err := k.OpenPath(cpu, p, []string{"lib", symbol})
			return linker.Target{Segno: segno}, err
		})
		lk := linker.NewLinkage()
		for _, sym := range []string{"sqrt_", "sort_", "format_"} {
			if _, err := l.Reference(cpu, lk, sym); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s snapped %d links (%d link faults)\n", sess.Principal, lk.Snapped(), l.Faults())
	}

	// Terminal traffic through the generic demultiplexer.
	mux := netmux.New(netmux.GenericKernel, k.Meter, nil)
	if err := mux.Attach(netmux.FrontEnd{Terminals: 8}); err != nil {
		log.Fatal(err)
	}
	if err := mux.Attach(netmux.Arpanet{Links: 4}); err != nil {
		log.Fatal(err)
	}
	for term := 0; term < 3; term++ {
		frame := netmux.Frame{Channel: term, Payload: []hw.Word{'h', 'i', 0o777}}
		if err := mux.Deliver(cpu, "front-end", frame); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("delivered %d terminal blocks; network kernel residue: %d lines for %d networks\n",
		mux.Delivered(), mux.KernelLines(), len(mux.Networks()))

	// A scheduling mix over the two-level multiplexer: each processor
	// runs four quanta from its own run queue, under the deterministic
	// executor.
	n, err := k.Procs.RunQuantumWith(uproc.SimExecutor{Seed: 1977}, k.CPUs, 4,
		func(_ *hw.Processor, p *uproc.Process) { p.AddCPU(7) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler ran %d quanta over %d processes on %d virtual processors\n",
		n, k.Procs.Count(), k.VProcs.N())

	// Logout with accounting.
	for _, sess := range sessions {
		p := sess.Process.(*uproc.Process)
		if err := svc.Logout(sess, p.CPU()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\naccounting records:")
	for _, r := range svc.Records() {
		fmt.Printf("    %-12s login-cost=%5d cyc  cpu=%d cyc\n", r.Principal, r.LoginCycles, r.CPUUsed)
	}
}
