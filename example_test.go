package multics_test

import (
	"fmt"
	"log"

	"multics"
	"multics/internal/hw"
)

// Example boots Kernel/Multics, exercises the file system through the
// fault machinery, and shows the machine-checked certification order —
// the paper's central artifact.
func Example() {
	k, err := multics.Boot(multics.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	p, err := k.CreateProcess("alice.sys", multics.Bottom)
	if err != nil {
		log.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)

	if _, err := k.CreateFile(cpu, p, nil, "notes", nil, multics.Bottom); err != nil {
		log.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"notes"})
	if err != nil {
		log.Fatal(err)
	}
	if err := k.Write(cpu, p, segno, 2*hw.PageWords, 42); err != nil {
		log.Fatal(err)
	}
	w, err := k.Read(cpu, p, segno, 2*hw.PageWords)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read back:", w)
	fmt.Println("loop-free:", len(k.Graph.Cycles()) == 0)
	fmt.Println("bottom of the certification order:", k.CertificationOrder()[0][0])
	// Output:
	// read back: 42
	// loop-free: true
	// bottom of the certification order: core-segment-manager
}

// ExampleSizeTable regenerates the paper's kernel-size accounting.
func ExampleSizeTable() {
	t := multics.SizeTable()
	fmt.Printf("start %dK, reductions %dK, remaining %dK\n",
		t.StartTotal/1000, t.TotalReduction/1000, t.Final/1000)
	// Output:
	// start 54K, reductions 28K, remaining 26K
}
