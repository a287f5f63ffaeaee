// Package audit implements the reviewable-kernel goal the project
// aimed at: "two or more small, expert teams of programmers can be
// assigned to be auditors of the code ... to try to understand the
// function of every program statement and to report anything that is
// not understandable or potentially in error."
//
// Because the kernel's modules are object managers with explicit
// interfaces and a verified loop-free dependency structure, each can
// be audited independently, bottom-up. This package makes that
// executable: every manager exposes an Audit method checking its own
// representation invariants, and the auditor runs them in the
// certification order computed from the dependency graph, plus the
// cross-module checks (the storage accounting balance) that only a
// whole-system view can make.
package audit

import (
	"fmt"
	"strings"

	"multics/internal/core"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/quota"
)

// A Finding is one invariant violation, attributed to the module
// whose audit discovered it.
type Finding struct {
	Module string
	Detail string
	// Cycle is the simulated cycle clock at which the violation was
	// detected.
	Cycle int64
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (detected at cycle %d)", f.Module, f.Detail, f.Cycle)
}

// A Report is the result of one audit pass.
type Report struct {
	// Order is the certification order the audit followed.
	Order [][]string
	// Findings is every violation, in audit order. An empty list is
	// a clean audit.
	Findings []Finding
	// Cycles is the simulated cost of the audit pass itself: the
	// auditors' reads are metered like everyone else's.
	Cycles int64
}

// Clean reports whether the audit found nothing.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

func (r Report) String() string {
	var b strings.Builder
	b.WriteString("audit order:\n")
	for i, layer := range r.Order {
		fmt.Fprintf(&b, "    layer %d: %s\n", i, strings.Join(layer, ", "))
	}
	fmt.Fprintf(&b, "audit pass cost %d simulated cycles\n", r.Cycles)
	if r.Clean() {
		b.WriteString("no findings: every module invariant and the global accounting balance hold\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d findings:\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "    %s\n", f)
	}
	return b.String()
}

// Run performs a full audit pass over a live kernel: the structural
// check, each manager's self-audit in certification order, and the
// cross-module storage-accounting balance.
func Run(k *core.Kernel) (r Report) {
	start := k.Meter.Snapshot()
	defer func() { r.Cycles = k.Meter.Since(start) }()
	add := func(module string, details []string) {
		for _, d := range details {
			r.Findings = append(r.Findings, Finding{Module: module, Detail: d, Cycle: k.Meter.Cycles()})
		}
	}

	// The structure itself.
	if err := k.Graph.Verify(); err != nil {
		add("dependency-structure", []string{err.Error()})
		// Without a lattice there is no certification order.
		return r
	}
	layers, err := k.Graph.Layers()
	if err != nil {
		add("dependency-structure", []string{err.Error()})
		return r
	}
	r.Order = layers

	// Core segments must be sealed after initialization.
	if !k.CoreSegs.Sealed() {
		add(core.ModCoreSeg, []string{"core segment allocation not sealed"})
	}

	// Per-module self-audits, bottom-up.
	add(core.ModVProc, k.VProcs.Audit())
	add(core.ModFrame, k.Frames.Audit())
	add(core.ModSegment, k.Segs.Audit())
	add(core.ModKnownSeg, k.KSM.Audit())
	add(core.ModUProc, k.Procs.Audit())

	// Cross-module: every allocated disk record is charged to
	// exactly one quota cell (cached value wins for active cells).
	charged, allocated, errs := Balance(k)
	add(core.ModQuota, errs)
	if charged != allocated {
		add(core.ModQuota, []string{fmt.Sprintf("%d pages charged across all cells but %d records allocated", charged, allocated)})
	}
	return r
}

// Balance computes the global storage accounting: pages charged
// across every quota cell versus records allocated across every pack.
func Balance(k *core.Kernel) (charged, allocated int, problems []string) {
	for _, packID := range k.Vols.Packs() {
		pack, err := k.Vols.Pack(packID)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		allocated += pack.UsedRecords()
		pack.EachEntry(func(idx disk.TOCIndex, e disk.TOCEntry) {
			// The auditor's table probe is metered like any other
			// reference.
			k.Meter.Add(core.ModAudit, hw.CycMemRef)
			if !e.Quota.Valid {
				return
			}
			cell := quota.CellName{Pack: packID, TOC: idx}
			if k.Cells.Active(cell) {
				_, used, err := k.Cells.Info(cell)
				if err != nil {
					problems = append(problems, err.Error())
					return
				}
				charged += used
			} else {
				charged += e.Quota.Used
			}
		})
	}
	return charged, allocated, problems
}
