package core_test

import (
	"cmp"
	"runtime"
	"testing"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/core"
	"multics/internal/hw"
	"multics/internal/uproc"
	"multics/internal/workload"
)

// TestColdScanAllocatesLittle pins the host cost of a cold page fault.
// Two processors scan their own file, each file on its own pack, under
// the deterministic executor; every pass starts by deactivating both
// files, so every page faults, and the sequential pattern serves most
// faults from read-ahead claims. Read-ahead tickets are recycled, a
// speculation lives in the frame table, the read-ahead window and
// eviction reports live in buffers the callers own, and a fault travels by value, so the whole
// pass (deactivation, activation and the executor run included)
// averages under 24 bytes of Go heap per fault: an activation reuses
// its slot's AST entry and page table, and a deactivation lists its
// resident frames into a buffer the page frame manager lends.
func TestColdScanAllocatesLittle(t *testing.T) {
	const pages, passes = 64, 32
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.SpreadPacks = true
	cfg.WiredFrames = 8
	cfg.MemFrames = cfg.WiredFrames + cfg.Processors*pages + 64
	cfg.RootQuota = 4096
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.NewWorkers(k, uproc.SimExecutor{}, cfg.Processors, workload.Files{Prefix: "cold", Quota: 1024})
	if err != nil {
		t.Fatal(err)
	}
	uids := make([]uint64, len(ws))
	for i, w := range ws {
		for pg := 0; pg < pages; pg++ {
			if err := k.Write(w.CPU, w.Proc, w.Segno, pg*hw.PageWords, hw.Word(pg+1)); err != nil {
				t.Fatal(err)
			}
		}
		e, err := w.Proc.KST().Entry(w.Segno)
		if err != nil {
			t.Fatal(err)
		}
		uids[i] = e.UID
	}
	ex := func(seed int64) uproc.Executor { return uproc.SimExecutor{Seed: seed} }
	pass := func(seed int64) {
		t.Helper()
		// The deactivations run on a processor's task too: off a task
		// the rank checker names the goroutine, which allocates.
		var derr error
		err := ex(seed).Run(k.CPUs[:1], func(*hw.Processor) {
			for _, uid := range uids {
				if derr == nil {
					derr = k.Segs.Deactivate(uid)
				}
			}
		})
		if err = cmp.Or(err, derr); err != nil {
			t.Fatal(err)
		}
		err = workload.Run(ex(seed), ws, func(w *workload.Worker) error {
			return workload.Scan(k, w, pages, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pass(0) // warm the free lists and spare buffers
	st0 := k.Frames.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= passes; i++ {
		pass(int64(i))
	}
	runtime.ReadMemStats(&after)
	st := k.Frames.Stats()
	faults := st.Faults - st0.Faults
	if want := int64(passes * len(ws) * pages); faults != want {
		t.Fatalf("%d faults over %d cold passes, want %d: the scan was not cold", faults, passes, want)
	}
	if st.PrefetchHits == st0.PrefetchHits {
		t.Fatal("no read-ahead claim: the scan did not exercise the read-ahead path")
	}
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(faults)
	t.Logf("%d B per cold fault", per)
	if per >= 24 {
		t.Errorf("a cold fault allocated %d bytes, want under 24", per)
	}
	if err := audited(k); err != nil {
		t.Error(err)
	}
}

// TestLoginTurnoverAllocatesLittle pins the host cost of a session
// turnover: a logout, the destruction of its process and a login in
// its place. The process record, its descriptor table, its KST, the
// state segment's AST entry and page table and its table-of-contents
// entry's file map are all recycled from the turnover before, so is
// the session handle, and the accounting log grows in chunks, so once
// warm a turnover allocates little beyond its 24-byte accounting
// record: under 64 bytes.
func TestLoginTurnoverAllocatesLittle(t *testing.T) {
	const users, pool, warm, turnovers = 32, 64, 256, 4096
	cfg := core.DefaultConfig()
	cfg.ASTPages = 2
	cfg.WiredFrames = cfg.ASTPages + 6
	cfg.MemFrames = cfg.WiredFrames + users + 64
	k, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := workload.Service(k)
	// The names are formatted here, so the measured turnovers count
	// only the kernel's allocations.
	names := make([]string, pool)
	for i := range names {
		names[i] = answering.StormPrincipal(i)
		if err := svc.Register(names[i], "pw", aim.Top); err != nil {
			t.Fatal(err)
		}
	}
	sessions := make([]*answering.Session, users)
	next := 0 // the next principal to log in, round the pool
	turnover := func(slot int) error {
		if s := sessions[slot]; s != nil {
			p := s.Process.(*uproc.Process)
			if err := svc.Logout(s, p.CPU()); err != nil {
				return err
			}
			if err := k.Procs.Destroy(p); err != nil {
				return err
			}
		}
		s, err := svc.Login(names[next], "pw", aim.Bottom)
		next = (next + 1) % pool
		sessions[slot] = s
		return err
	}
	// Run on a processor's task: off a task the rank checker names the
	// goroutine, which allocates.
	run := func(n int) {
		t.Helper()
		var terr error
		err := uproc.SimExecutor{}.Run(k.CPUs[:1], func(*hw.Processor) {
			for i := 0; i < n && terr == nil; i++ {
				terr = turnover(i % users)
			}
		})
		if err = cmp.Or(err, terr); err != nil {
			t.Fatal(err)
		}
	}
	run(warm) // fill the population and warm the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(turnovers)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / turnovers
	t.Logf("%d B per turnover", per)
	if per >= 64 {
		t.Errorf("a login turnover allocated %d bytes, want under 64", per)
	}
	if n := k.Procs.Count(); n != users {
		t.Errorf("%d processes alive, want %d", n, users)
	}
	if err := audited(k); err != nil {
		t.Error(err)
	}
}
