package core

import (
	"multics/internal/coreseg"
	"multics/internal/deps"
	"multics/internal/directory"
	"multics/internal/disk"
	"multics/internal/knownseg"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/salvage"
	"multics/internal/segment"
	"multics/internal/uproc"
	"multics/internal/vproc"
)

// Module names of the Kernel/Multics design (Figure 4 of the paper).
// Every manager owns its name: its trace events and its ranked locks
// must carry the same string the dependency graph uses, so the lock
// ranks installed from the graph's layers reach the right mutexes.
const (
	ModCoreSeg  = coreseg.ModuleName
	ModVProc    = vproc.ModuleName
	ModDisk     = disk.ModuleName
	ModFrame    = pageframe.ModuleName
	ModQuota    = quota.ModuleName
	ModSegment  = segment.ModuleName
	ModKnownSeg = knownseg.ModuleName
	ModDir      = directory.ModuleName
	ModUProc    = uproc.ModuleName
	ModSalvage  = salvage.ModuleName
)

// Ledger accounts outside the lattice: the user-ring services (which
// the kernel does not import; a test holds the names equal to theirs)
// and the auditor.
const (
	ModLinker    = "linker"
	ModAnswering = "answering-service"
	ModAudit     = "audit"
)

// BuildGraph constructs the dependency structure of the redesigned
// kernel: every module is an object manager, every dependency is one
// of the five disciplined kinds, and the result is loop-free. Boot
// verifies this graph; cmd/depgraph renders it as Figure 4.
func BuildGraph() *deps.Graph {
	g := deps.New()
	g.AddModule(ModCoreSeg, "fixed core segments allocated at initialization; read and write only")
	g.AddModule(ModVProc, "fixed virtual processors with states in core segments")
	g.AddModule(ModDisk, "disk packs, records and tables of contents")
	g.AddModule(ModFrame, "multiplexes pageable page frames; services page faults")
	g.AddModule(ModQuota, "explicit quota cell objects cached in a core-segment table")
	g.AddModule(ModSegment, "active segment table; activation, growth, relocation")
	g.AddModule(ModKnownSeg, "per-process segment number bindings; quota exception entry")
	g.AddModule(ModDir, "naming hierarchy, ACLs, labels, quota designation")
	g.AddModule(ModUProc, "arbitrary user processes multiplexed onto virtual processors")
	g.AddModule(ModSalvage, "boot-time repair of tables of contents, free lists and quota cells")

	// The two blanket rules the paper states for Figure 4: every
	// module except the core segment manager depends on the virtual
	// processor manager (interpreter) and on the core segment
	// manager (address space).
	for _, mod := range []string{ModDisk, ModFrame, ModQuota, ModSegment, ModKnownSeg, ModDir, ModUProc, ModSalvage} {
		g.MustDepend(mod, ModVProc, deps.Interpreter, "executes on a virtual processor")
		g.MustDepend(mod, ModCoreSeg, deps.AddressSpace, "system address space defined by a core-segment translation table")
	}
	g.MustDepend(ModVProc, ModCoreSeg, deps.Map, "virtual processor states live in a core segment")
	g.MustDepend(ModVProc, ModCoreSeg, deps.AddressSpace, "runs in the wired system address space")

	g.MustDepend(ModFrame, ModDisk, deps.Component, "page contents live in disk records")
	g.MustDepend(ModFrame, ModCoreSeg, deps.Map, "frame tables live in core segments")

	g.MustDepend(ModQuota, ModDisk, deps.Component, "quota cells are stored in table-of-contents entries")
	g.MustDepend(ModQuota, ModCoreSeg, deps.Map, "active cells are cached in a core-segment table")

	g.MustDepend(ModSegment, ModFrame, deps.Component, "segments are arrays of pages")
	g.MustDepend(ModSegment, ModQuota, deps.Component, "growth checks the statically bound quota cell")
	g.MustDepend(ModSegment, ModDisk, deps.Map, "file maps live in tables of contents")
	g.MustDepend(ModSegment, ModCoreSeg, deps.Map, "the active segment table lives in a core segment")

	g.MustDepend(ModKnownSeg, ModSegment, deps.Component, "known segments bind segment numbers to segments")
	g.MustDepend(ModKnownSeg, ModCoreSeg, deps.Map, "known segment tables live in wired storage")
	g.MustDepend(ModKnownSeg, ModDisk, deps.Component, "an entry records its segment's disk address, which relocation rewrites")
	g.MustDepend(ModKnownSeg, ModQuota, deps.Component, "an entry names its segment's statically bound quota cell")

	g.MustDepend(ModDir, ModSegment, deps.Component, "directory representations are stored in segments")
	g.MustDepend(ModDir, ModKnownSeg, deps.Component, "initiation hands bindings to known segment tables")
	g.MustDepend(ModDir, ModQuota, deps.Component, "quota designation creates and removes cells")
	g.MustDepend(ModDir, ModDisk, deps.Component, "a branch records its segment's disk address")

	g.MustDepend(ModUProc, ModVProc, deps.Interpreter, "user processes are multiplexed onto virtual processors")
	g.MustDepend(ModUProc, ModSegment, deps.Component, "user process states are stored in segments")
	g.MustDepend(ModUProc, ModKnownSeg, deps.Component, "each process carries a known segment table")
	g.MustDepend(ModUProc, ModCoreSeg, deps.Map, "the real-memory message queue lives in a core segment")

	g.MustDepend(ModSalvage, ModDisk, deps.Component, "salvage reads and repairs tables of contents and free lists")

	return g
}
