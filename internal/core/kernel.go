// Package core assembles Kernel/Multics: it boots every object
// manager bottom-up, declares the complete dependency structure, and
// refuses to run if that structure is not the loop-free lattice of
// disciplined dependencies the type-extension rationale demands. The
// paper's central claim — that the kernel's correctness can be
// established iteratively, one module at a time — is thereby made
// executable: the certification order is computable at every boot.
//
// The package also provides the user-visible operations (the gates)
// and the fault loop that turns hardware exceptions into calls on the
// appropriate managers: missing segments and pages into the known
// segment manager's services, quota exceptions into the charged
// growth path, locked descriptors into waits, and relocation notices
// into upward signals dispatched after the faulting chain unwinds.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"multics/internal/aim"
	"multics/internal/coreseg"
	"multics/internal/deps"
	"multics/internal/directory"
	"multics/internal/disk"
	"multics/internal/hw"
	"multics/internal/knownseg"
	"multics/internal/lockrank"
	"multics/internal/pageframe"
	"multics/internal/quota"
	"multics/internal/salvage"
	"multics/internal/segment"
	"multics/internal/trace"
	"multics/internal/uproc"
	"multics/internal/upsignal"
	"multics/internal/vproc"
)

// ReclaimerModule is the second dedicated memory-management process of
// the redesigned (multi-process) paging system.
const ReclaimerModule = "core-reclaimer"

// GateModule names the kernel's own gate lock in the lock-rank table.
// It is not a module of the Figure-4 lattice: it ranks one layer above
// the whole lattice, because the fault loop holds it while upward-
// signal handlers acquire module locks below.
const GateModule = "kernel-gate"

// A PackSpec describes one disk pack to mount at boot.
type PackSpec struct {
	ID      string
	Records int
}

// Config parameterizes Boot. The zero value is not usable; call
// DefaultConfig for a sensible small machine.
type Config struct {
	// MemFrames is total primary memory; WiredFrames of it belong
	// to core segments.
	MemFrames   int
	WiredFrames int
	// VProcs is the fixed number of virtual processors.
	VProcs int
	// Processors is the number of simulated CPUs.
	Processors int
	// Packs are created and mounted at boot; the first holds the
	// root. May be empty if Mount supplies the packs instead.
	Packs []PackSpec
	// Mount lists existing packs — demounted from a previous
	// incarnation, possibly after a crash — to mount at boot. Any
	// that are marked dirty are salvaged before the kernel uses
	// them. When Packs is empty the first mounted pack holds the
	// root.
	Mount []*disk.Pack
	// RootQuota is the root directory's quota cell limit, in pages.
	RootQuota int
	// Daemons selects the multi-process memory manager (the
	// redesign); false runs write-backs inline as 1974 did.
	Daemons bool
	// Seed fixes identifier fabrication for reproducibility.
	Seed uint64
	// TraceEvents, when positive, boots with event tracing on,
	// retaining that many events in the trace ring. Zero boots
	// untraced (every emission site then costs one nil check).
	TraceEvents int
	// ASTPages sizes the active segment table in core-segment pages
	// (128 entries per page); zero selects the default of 2. Every
	// resident process state holds an entry, so a login storm scales
	// this with its user count — and WiredFrames with it.
	ASTPages int
	// SpreadPacks places new files round-robin across the mounted
	// packs instead of on the containing directory's pack, so
	// independent files' faults ride different per-pack device
	// queues and overlap. Directories stay clustered with their
	// parents either way.
	SpreadPacks bool
	// AssocOff boots without per-processor associative memories:
	// every reference then pays a full table walk, as the kernel ran
	// before the cache. The default (false) fits each processor with
	// a cache and wires the shootdown bus through the page frame and
	// segment managers.
	AssocOff bool
}

// DefaultConfig returns a small but fully functional machine.
func DefaultConfig() Config {
	return Config{
		MemFrames:   96,
		WiredFrames: 8,
		VProcs:      8,
		Processors:  2,
		Packs:       []PackSpec{{ID: "dska", Records: 1024}, {ID: "dskb", Records: 1024}},
		RootQuota:   512,
		Daemons:     true,
		Seed:        1977,
	}
}

// A Kernel is a booted Kernel/Multics instance.
type Kernel struct {
	Meter    *hw.CostMeter
	Mem      *hw.Memory
	CoreSegs *coreseg.Manager
	VProcs   *vproc.Manager
	Vols     *disk.Volumes
	Frames   *pageframe.Manager
	Cells    *quota.Manager
	Segs     *segment.Manager
	KSM      *knownseg.Manager
	Dirs     *directory.Manager
	Procs    *uproc.Manager
	Signals  *upsignal.Dispatcher
	Queue    *uproc.Queue
	Graph    *deps.Graph
	CPUs     []*hw.Processor
	// AssocBus is the connect-fault plane carrying translation-cache
	// shootdowns between processors; nil when Config.AssocOff.
	AssocBus *hw.ShootdownBus
	// Trace is the kernel event recorder, nil unless the kernel booted
	// with Config.TraceEvents.
	Trace *trace.Recorder
	// Salvage is the boot-time salvager's report: what the volume
	// salvager repaired on packs that were mounted dirty. Clean when
	// no pack needed repair.
	Salvage salvage.Report

	cfg Config
	// gateLock is the kernel's gate lock: the fault loop holds it
	// while dispatching upward signals, so relocation handlers —
	// which walk down from the directory manager — run one at a time
	// even with several processors faulting concurrently. Ranked one
	// layer above the whole lattice (GateModule), and priority-
	// donating: a high-priority process waiting here boosts the
	// holder so a low-priority holder cannot be starved mid-dispatch.
	gateLock *uproc.PLock
	// restores counts processes resumed after relocation notices.
	restores atomic.Int64
	// retryPressure counts references that crossed half their
	// fault-service retry budget; retryExhausted counts references
	// that ran the budget out entirely and failed. Together they make
	// retry starvation visible long before it becomes an error.
	retryPressure  atomic.Int64
	retryExhausted atomic.Int64
}

// RetryStats reports the fault-service retry pressure: how many
// references crossed half their retry budget (HalfBudget) and how
// many exhausted it and failed (Exhausted).
func (k *Kernel) RetryStats() (halfBudget, exhausted int64) {
	return k.retryPressure.Load(), k.retryExhausted.Load()
}

// Boot builds and verifies a Kernel/Multics instance.
func Boot(cfg Config) (*Kernel, error) {
	if cfg.MemFrames <= cfg.WiredFrames {
		return nil, fmt.Errorf("core: %d frames with %d wired leaves no pageable memory", cfg.MemFrames, cfg.WiredFrames)
	}
	if len(cfg.Packs) == 0 && len(cfg.Mount) == 0 {
		return nil, errors.New("core: no disk packs configured")
	}
	if cfg.Processors <= 0 {
		cfg.Processors = 1
	}
	k := &Kernel{Meter: &hw.CostMeter{}, cfg: cfg}
	k.Mem = hw.NewMemory(cfg.MemFrames)

	// The structure check: the kernel refuses to boot on a
	// dependency loop or an undisciplined dependency. Verified
	// before anything runs so that even the boot-time salvager
	// works under a certified structure.
	k.Graph = BuildGraph()
	if err := k.Graph.Verify(); err != nil {
		return nil, fmt.Errorf("core: kernel structure rejected: %w", err)
	}
	// The certification order doubles as the locking order: install
	// the layers as lock ranks, so that (in debug builds) acquiring a
	// module's lock while holding an equal-or-lower-ranked one panics.
	// The graph is static, so every boot installs identical ranks.
	layers, err := k.Graph.Layers()
	if err != nil {
		return nil, fmt.Errorf("core: kernel structure rejected: %w", err)
	}
	lockrank.SetLayers(layers)
	lockrank.SetModuleLayer(GateModule, len(layers))
	if cfg.TraceEvents > 0 {
		// The recorder exists before the disk level boots so that
		// salvage repairs are on the record.
		k.Trace = trace.NewRecorder(cfg.TraceEvents, k.Meter)
		k.Trace.Register(k.Graph.Modules()...)
	}

	// Level 0: core segments, fixed at initialization.
	cm, err := coreseg.NewManager(k.Mem, cfg.WiredFrames, k.Meter)
	if err != nil {
		return nil, err
	}
	k.CoreSegs = cm
	vpStates, err := cm.Allocate("vp-states", cfg.VProcs*vproc.StateWords)
	if err != nil {
		return nil, err
	}
	quotaTable, err := cm.Allocate("quota-table", hw.PageWords)
	if err != nil {
		return nil, err
	}
	astPages := cfg.ASTPages
	if astPages <= 0 {
		astPages = 2
	}
	ast, err := cm.Allocate("ast", astPages*hw.PageWords)
	if err != nil {
		return nil, err
	}
	msgSeg, err := cm.Allocate("msg-queue", hw.PageWords)
	if err != nil {
		return nil, err
	}

	// Level 1: the fixed virtual processors.
	k.VProcs, err = vproc.NewManager(cfg.VProcs, vpStates, k.Meter)
	if err != nil {
		return nil, err
	}
	for _, mod := range []string{pageframe.PageWriterModule, ReclaimerModule, uproc.SchedulerModule} {
		if _, err := k.VProcs.BindKernel(mod); err != nil {
			return nil, err
		}
	}

	// Disk and the memory managers.
	k.Vols = disk.NewVolumes(k.Meter)
	for _, p := range cfg.Packs {
		if _, err := k.Vols.AddPack(p.ID, p.Records); err != nil {
			return nil, err
		}
	}
	for _, p := range cfg.Mount {
		if err := k.Vols.Mount(p); err != nil {
			return nil, err
		}
	}
	// Any pack mounted dirty was in use when its previous system
	// stopped: salvage before higher levels see it.
	k.Salvage, err = salvage.Run(k.Vols, k.Trace, false)
	if err != nil {
		return nil, fmt.Errorf("core: boot-time salvage: %w", err)
	}
	k.Frames, err = pageframe.NewManager(k.Mem, cm.FirstPageableFrame(), k.VProcs, k.Meter)
	if err != nil {
		return nil, err
	}
	k.Frames.Daemons = cfg.Daemons
	if !cfg.AssocOff {
		k.AssocBus = hw.NewShootdownBus()
		k.Frames.Bus = k.AssocBus
		k.Frames.AssocStats = func() (hits, misses, shootdowns int64) {
			for _, cpu := range k.CPUs {
				st := cpu.Assoc.Stats()
				hits += st.Hits
				misses += st.Misses
			}
			return hits, misses, k.AssocBus.Shootdowns()
		}
	}
	k.Cells, err = quota.NewManager(k.Vols, quotaTable, k.Meter)
	if err != nil {
		return nil, err
	}
	k.Segs, err = segment.NewManager(k.Vols, k.Frames, k.Cells, ast, k.Meter)
	if err != nil {
		return nil, err
	}
	k.Segs.Bus = k.AssocBus

	// The naming and process levels.
	rootPack := ""
	if len(cfg.Packs) > 0 {
		rootPack = cfg.Packs[0].ID
	} else {
		rootPack = cfg.Mount[0].ID()
	}
	k.Signals = upsignal.NewDispatcher()
	k.KSM = knownseg.NewManager(k.Segs, k.Signals, k.Meter)
	k.Dirs, err = directory.NewManager(k.Segs, k.KSM, k.Cells, k.Signals, k.Meter, directory.Config{
		RootPack:  rootPack,
		RootQuota: cfg.RootQuota,
		Seed:      cfg.Seed,
		Spread:    cfg.SpreadPacks,
	})
	if err != nil {
		return nil, err
	}
	k.Dirs.Restore = func(state any) {
		k.restores.Add(1)
		if r, ok := state.(func()); ok && r != nil {
			r()
		}
	}
	k.Queue, err = uproc.NewQueue(msgSeg, k.Meter)
	if err != nil {
		return nil, err
	}
	k.Procs = uproc.NewManager(k.VProcs, k.Segs, k.KSM, k.Queue, k.Meter)
	// One run queue per simulated processor, so each CPU's scheduler
	// worker dispatches from its own queue and steals when it drains.
	k.Procs.SetRunQueues(cfg.Processors)
	// The gate lock donates priority through the process manager: a
	// waiter at the gate boosts whoever holds it.
	k.gateLock = uproc.NewPLock(k.Procs, GateModule)
	k.Procs.StatePack = rootPack
	rootEntry, err := k.Dirs.Status("initializer.sys", aim.Top, k.Dirs.RootID())
	if err != nil {
		return nil, err
	}
	k.Procs.StateCell = segment.CellRef{Cell: rootEntry.Addr, UID: rootEntry.UID, Has: true}

	// Processors, with the kernel design's two hardware additions.
	// Each processor carries its own wired descriptor table behind
	// its second descriptor base register: the tables translate
	// identically (they share the wired page tables), but a fault
	// being serviced through one processor's table never contends on
	// another's.
	for i := 0; i < cfg.Processors; i++ {
		sysDT, err := buildSystemDT(cm, k.Procs.KSTBase)
		if err != nil {
			return nil, err
		}
		cpu := hw.NewProcessor(i, k.Mem, k.Meter)
		cpu.DescriptorLockHW = true
		cpu.SystemDT = sysDT
		cpu.SystemSegMax = k.Procs.KSTBase
		cpu.Ring = hw.UserRing
		if k.AssocBus != nil {
			cpu.Assoc = hw.NewAssociativeMemory()
			cpu.AssocModule = ModFrame
			k.AssocBus.Attach(cpu.Assoc)
		}
		k.VProcs.RegisterProcessor(cpu)
		k.CPUs = append(k.CPUs, cpu)
	}

	cm.Seal()
	if k.Trace != nil {
		k.wireTrace()
	}
	return k, nil
}

// wireTrace threads k.Trace through the hardware and every
// instrumented manager.
func (k *Kernel) wireTrace() {
	rec := k.Trace
	// Each fault kind is charged to the module that services it.
	// Access, bounds and gate violations have no kernel service —
	// they are returned to the process that erred — so they are
	// charged to the user process manager, which owns that delivery.
	faultModules := map[hw.FaultKind]string{
		hw.FaultMissingSegment:   ModKnownSeg,
		hw.FaultMissingPage:      ModFrame,
		hw.FaultLockedDescriptor: ModFrame,
		hw.FaultQuota:            ModQuota,
		hw.FaultAccess:           ModUProc,
		hw.FaultBounds:           ModUProc,
		hw.FaultGate:             ModUProc,
	}
	for _, cpu := range k.CPUs {
		cpu.Trace = rec
		cpu.FaultModules = faultModules
	}
	k.AssocBus.SetTrace(rec)
	k.Vols.SetTrace(rec)
	k.VProcs.SetTrace(rec)
	k.Frames.SetTrace(rec)
	k.Cells.SetTrace(rec)
	k.Procs.SetTrace(rec)
	k.Signals.SetTrace(rec)
}

// AssocFingerprint renders every processor's associative-memory state
// in a fixed format. It is part of the determinism surface: two
// identical single-processor runs must yield byte-identical
// fingerprints, cache contents included.
func (k *Kernel) AssocFingerprint() string {
	var b strings.Builder
	for _, cpu := range k.CPUs {
		fmt.Fprintf(&b, "cpu%d %s", cpu.ID, cpu.Assoc.Fingerprint())
		b.WriteByte('\n')
	}
	return b.String()
}

// buildSystemDT wires one processor's system descriptor table over
// the core segments.
func buildSystemDT(cm *coreseg.Manager, kstBase int) (*hw.DescriptorTable, error) {
	sysDT := hw.NewDescriptorTable(kstBase)
	for i, name := range cm.Segments() {
		seg, err := cm.Segment(name)
		if err != nil {
			return nil, err
		}
		if i >= sysDT.Len() {
			break
		}
		if err := sysDT.Set(i, hw.SDW{Present: true, Table: seg.PageTable(), Access: hw.Read | hw.Write, MaxRing: hw.KernelRing, WriteRing: hw.KernelRing}); err != nil {
			return nil, err
		}
	}
	return sysDT, nil
}

// Restores reports how many relocation notices resumed a process.
func (k *Kernel) Restores() int64 { return k.restores.Load() }

// CertificationOrder returns the module layers in which an auditor
// can establish correctness bottom-up.
func (k *Kernel) CertificationOrder() [][]string {
	layers, err := k.Graph.Layers()
	if err != nil {
		// Boot verified loop-freedom; this cannot happen.
		panic(err)
	}
	return layers
}
