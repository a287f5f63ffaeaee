package core

// The paper's certification plan includes, as its fourth prong, "a
// tiger team can be assigned the task of breaking into the system."
// This file is that tiger team: each test is an attack on a protection
// mechanism, and passes only if the attack fails in the prescribed,
// information-free way.

import (
	"errors"
	"testing"
	"testing/quick"

	"multics/internal/aim"
	"multics/internal/directory"
	"multics/internal/hw"
)

func TestTigerSystemSegmentsUnreachable(t *testing.T) {
	// Attack: reference the kernel's core segments (vp states,
	// quota table, AST, message queue) by their system segment
	// numbers from the user ring.
	k := boot(t, nil)
	cpu, _ := user(t, k, "mallory.x", aim.Bottom)
	for segno := 0; segno < k.Procs.KSTBase; segno++ {
		if _, err := cpu.Read(segno, 0); err == nil {
			t.Errorf("user-ring read of system segment %d succeeded", segno)
		}
		if err := cpu.Write(segno, 0, 0o777); err == nil {
			t.Errorf("user-ring write of system segment %d succeeded", segno)
		}
	}
	// The quota table still holds kernel data, not 0o777.
	seg, err := k.CoreSegs.Segment("quota-table")
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := seg.Read(0); w == 0o777 {
		t.Error("attack overwrote the quota table")
	}
}

func TestTigerUnopenedSegmentNumbers(t *testing.T) {
	// Attack: reference segment numbers never handed out by the
	// known segment manager, hoping a stale descriptor leaks
	// another process's segment.
	k := boot(t, nil)
	cpu, alice := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, alice, nil, "private", directory.Owner("alice.sys"), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, alice, []string{"private"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Write(cpu, alice, segno, 0, 1); err != nil {
		t.Fatal(err)
	}
	mallory, err := k.CreateProcess("mallory.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, mallory)
	// Mallory tries Alice's segment number in her own space.
	if _, err := k.Read(cpu2, mallory, segno, 0); err == nil {
		t.Error("segment number from another process's space dereferenced")
	}
}

func TestTigerForgedIdentifiers(t *testing.T) {
	// Attack: guess identifiers. A forged identifier must behave
	// exactly like a mythical one: searches "succeed", use is a
	// bare no-access.
	k := boot(t, nil)
	cpu, p := user(t, k, "mallory.x", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "decoy", directory.Owner("other.user"), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	forged := func(seed uint64) bool {
		id := directory.Identifier(seed | 1)
		_, err := k.Open(cpu, p, id)
		// Either it's a real id Mallory legitimately may use
		// (impossible here: nothing grants mallory.x), or the
		// uniform denial.
		return errors.Is(err, directory.ErrNoAccess)
	}
	if err := quick.Check(forged, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTigerQuotaCannotBeBypassedBySparseness(t *testing.T) {
	// Attack: exceed quota by touching pages far apart, hoping the
	// growth path miscounts holes.
	k := boot(t, nil)
	cpu, p := user(t, k, "mallory.x", aim.Bottom)
	dirID, err := k.CreateDir(cpu, p, nil, "jail", directory.Public(hw.Read|hw.Write), aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DesignateQuota(cpu, p, dirID, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, p, []string{"jail"}, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"jail", "f"})
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	for _, page := range []int{0, 100, 200, 250, 17, 42} {
		err := k.Write(cpu, p, segno, page*hw.PageWords, 1)
		if err == nil {
			touched++
		}
	}
	// The directory page consumed 1 of the 4; only 3 file pages fit
	// no matter how they are scattered.
	if touched > 3 {
		t.Errorf("%d sparse pages written under a 4-page quota", touched)
	}
}

func TestTigerLabelSmugglingViaCreate(t *testing.T) {
	// Attack: create a low-labelled file inside a high directory so
	// that secret names drain into unclassified objects.
	k := boot(t, nil)
	secret := aim.Label{Level: aim.Secret}
	cpuLow, low := user(t, k, "mallory.x", aim.Bottom)
	if _, err := k.CreateDir(cpuLow, low, nil, "updir", directory.Public(hw.Read|hw.Write), secret); err != nil {
		t.Fatal(err)
	}
	hi, err := k.CreateProcess("mallory.x", secret)
	if err != nil {
		t.Fatal(err)
	}
	cpuHi := k.CPUs[1]
	k.Attach(cpuHi, hi)
	if _, err := k.CreateFile(cpuHi, hi, []string{"updir"}, "leak", directory.Public(hw.Read|hw.Write), aim.Bottom); err == nil {
		t.Error("created an unclassified file inside a secret directory")
	}
	// And the inverse: a low process cannot write entries into the
	// high directory at all.
	if _, err := k.CreateFile(cpuLow, low, []string{"updir"}, "x", nil, secret); !errors.Is(err, directory.ErrNoAccess) {
		t.Errorf("low process wrote a secret directory: %v", err)
	}
}

func TestTigerReadUpThroughSharedSegment(t *testing.T) {
	// Attack: a low process opens a high segment that has a
	// permissive ACL, counting on the discretionary bits alone.
	// AIM must strip read regardless of the ACL.
	k := boot(t, nil)
	secret := aim.Label{Level: aim.Secret}
	cpu, owner := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateFile(cpu, owner, nil, "intel", directory.Public(hw.Read|hw.Write), secret); err != nil {
		t.Fatal(err)
	}
	mallory, err := k.CreateProcess("mallory.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, mallory)
	segno, err := k.OpenPath(cpu2, mallory, []string{"intel"})
	if err != nil {
		// Denied outright is also acceptable.
		return
	}
	// If opened (blind append granted by the *-property), reading
	// must still fault.
	if _, err := k.Read(cpu2, mallory, segno, 0); !isFault(err, hw.FaultAccess) {
		t.Errorf("read up through permissive ACL: %v", err)
	}
	// Blind write up is permitted — and must not be readable back.
	if err := k.Write(cpu2, mallory, segno, 0, 7); err != nil {
		t.Logf("write up also denied: %v (stricter than required)", err)
	}
	if _, err := k.Read(cpu2, mallory, segno, 0); err == nil {
		t.Error("read-back after blind write succeeded")
	}
}

func TestTigerGateDiscipline(t *testing.T) {
	// Attack: transfer into ring zero without a gate.
	k := boot(t, nil)
	cpu, _ := user(t, k, "mallory.x", aim.Bottom)
	err := cpu.GateCall(hw.KernelRing, false, func() error { return nil })
	if !isFault(err, hw.FaultGate) {
		t.Errorf("non-gate inward transfer: %v", err)
	}
}

func TestTigerProbeCostChannel(t *testing.T) {
	// Attack: distinguish existing from nonexistent secret names by
	// the *cost* of the probe (a timing channel). The simulated
	// cycle meter makes this exactly measurable: the two probes
	// must cost the same.
	k := boot(t, nil)
	cpu, alice := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateDir(cpu, alice, nil, "hidden", directory.ACL{{Pattern: "alice.sys", Mode: hw.Read | hw.Write}}, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateFile(cpu, alice, []string{"hidden"}, "real-secret", directory.Owner("alice.sys"), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	mallory, err := k.CreateProcess("mallory.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, mallory)
	hiddenID, err := k.WalkPath(cpu2, mallory, []string{"hidden"})
	if err != nil {
		t.Fatal(err)
	}
	probe := func(name string) int64 {
		start := k.Meter.Snapshot()
		if _, err := k.Search(cpu2, mallory, hiddenID, name); err != nil {
			t.Fatal(err)
		}
		return k.Meter.Since(start)
	}
	real1 := probe("real-secret")
	myth := probe("no-such-name")
	if real1 != myth {
		t.Errorf("probe cost reveals existence: real %d vs mythical %d cycles", real1, myth)
	}
}

func TestTigerMythicalIdentifierStatistics(t *testing.T) {
	// Attack: classify identifiers as real or mythical by their
	// bit patterns. Both are 64-bit hash outputs; check the crude
	// distinguishers an attacker would try first (range, parity,
	// small-value clustering).
	k := boot(t, nil)
	cpu, alice := user(t, k, "alice.sys", aim.Bottom)
	if _, err := k.CreateDir(cpu, alice, nil, "h", directory.ACL{{Pattern: "alice.sys", Mode: hw.Read | hw.Write}}, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	var realIDs, mythIDs []uint64
	for i := 0; i < 64; i++ {
		name := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		id, err := k.CreateFile(cpu, alice, []string{"h"}, name, directory.Owner("alice.sys"), aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		realIDs = append(realIDs, uint64(id))
	}
	mallory, err := k.CreateProcess("mallory.x", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := k.CPUs[1]
	k.Attach(cpu2, mallory)
	hID, err := k.WalkPath(cpu2, mallory, []string{"h"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		name := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "-ghost"
		id, err := k.Search(cpu2, mallory, hID, name)
		if err != nil {
			t.Fatal(err)
		}
		mythIDs = append(mythIDs, uint64(id))
	}
	highBits := func(ids []uint64) int {
		n := 0
		for _, id := range ids {
			if id>>63 == 1 {
				n++
			}
		}
		return n
	}
	// Both populations should have roughly half their top bits set
	// (a sequential-counter scheme would fail this instantly).
	for _, pop := range []struct {
		name string
		ids  []uint64
	}{{"real", realIDs}, {"mythical", mythIDs}} {
		h := highBits(pop.ids)
		if h < 16 || h > 48 {
			t.Errorf("%s identifiers look non-uniform: %d/64 top bits set", pop.name, h)
		}
	}
}

func TestTigerBoundsAndNegativeOffsets(t *testing.T) {
	// Attack: drive the fault loop with degenerate addresses.
	k := boot(t, nil)
	cpu, p := user(t, k, "mallory.x", aim.Bottom)
	if _, err := k.CreateFile(cpu, p, nil, "f", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segno, err := k.OpenPath(cpu, p, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(cpu, p, segno, -1); !isFault(err, hw.FaultBounds) {
		t.Errorf("negative offset: %v", err)
	}
	// Beyond the architectural maximum: bounds, not growth.
	if err := k.Write(cpu, p, segno, 300*hw.PageWords, 1); err == nil {
		t.Error("write beyond the architectural maximum succeeded")
	}
	// The process is still healthy afterwards.
	if err := k.Write(cpu, p, segno, 0, 5); err != nil {
		t.Errorf("process wedged after degenerate references: %v", err)
	}
}
