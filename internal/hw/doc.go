// Package hw simulates the hardware base assumed by the Multics kernel
// design project: a Honeywell 6180-style processor with segmented,
// paged addressing, rings of protection, and primary ("core") memory.
//
// The simulation includes the two processor additions the paper
// proposes for Kernel/Multics:
//
//   - a second descriptor base register, so that segment numbers below
//     a threshold translate through a permanently resident, per-system
//     descriptor table and kernel modules cannot depend on the
//     machinery that supports user address spaces; and
//
//   - a lock bit in each page descriptor that the hardware sets
//     atomically when it takes a missing-page fault, plus a
//     locked-descriptor exception, a wakeup-waiting switch and a
//     locked-descriptor-address register, which together eliminate the
//     interpretive retranslation the 1974 page control needed.
//
// It also includes the exception-causing ("quota trap") bit on page
// descriptors of never-before-used pages, which turns segment growth
// into a distinct hardware exception delivered above page control.
//
// Every simulated memory reference, table walk, fault, ring crossing
// and disk transfer accrues simulated machine cycles on a CostMeter,
// so that the paper's relative performance claims can be reproduced
// deterministically. Every charge names the module it is for, and a
// traced kernel's meter posts it to the recorder's cycle ledger, the
// one record module and process cycles are read from.
package hw
