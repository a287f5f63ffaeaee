package main

import (
	"reflect"
	"testing"

	"multics/internal/lockrank"
)

// TestPagingStormRepeats: the multiprocessor paging storm runs under
// the seeded executor, so its makespan is the same run over run.
func TestPagingStormRepeats(t *testing.T) {
	busiest, rounds := pagingStorm(2, 16, false)
	again, roundsAgain := pagingStorm(2, 16, false)
	if busiest != again || rounds != roundsAgain {
		t.Errorf("two runs of one storm: %d cycles over %d rounds, then %d over %d", busiest, rounds, again, roundsAgain)
	}
	if busiest <= 0 || rounds != 16 {
		t.Errorf("storm measured %d cycles over %d rounds, want a positive makespan over 16", busiest, rounds)
	}
}

// TestLoginStormRepeats: every phase of the login storm, the serial
// login, wake-up and logout floods too, runs under the seeded
// executor with the rank checker on, so its row is the same run over
// run.
func TestLoginStormRepeats(t *testing.T) {
	if on := lockrank.SetChecking(true); !on {
		t.Fatal("the rank checker is off")
	}
	first := loginStorm(200, 2)
	second := loginStorm(200, 2)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two runs of one storm differ:\n%v\n%v", first, second)
	}
	if first["woken"] != first["blocked"] || first["blocked"] == 0 {
		t.Errorf("blocked %v woken %v: every blocked process must be woken", first["blocked"], first["woken"])
	}
}

// TestConnStormRepeats: a 2-processor connection storm reports the
// same row, latency tail included, run over run.
func TestConnStormRepeats(t *testing.T) {
	first := connStorm(10_000, 2)
	second := connStorm(10_000, 2)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two runs of one storm differ:\n%v\n%v", first, second)
	}
	// Every storm frame and login frame is drained; only the flooded
	// slow line of the isolation check keeps frames queued.
	if got, want := first["delivered"], int64(10_000+32); got != want {
		t.Errorf("delivered %v frames, want %d: the storm left frames undrained", got, want)
	}
}

// These tests pin the shape of P5, P6 and P8 against the deterministic
// cycle meter, on the storms those rows print, so a cost-model
// regression fails loudly rather than silently changing the story.

// TestShapePageFaultPath: P5's redesigned memory manager has a
// slightly slower processor path than the baseline's (the PL/I
// recode), the paper's "negative, but not significant". End to end
// the comparison inverts: the kernel's faults ride the per-pack
// elevator queue, whose distance-priced positioning (short or no seeks
// between the sequential records of a thrashing scan) undercuts the
// baseline's full average seek per transfer by more than the recode
// costs. The kernel runs as the 1976 system did, without associative
// memory and with one victim per eviction pass (FrameBatch = 1), P5's
// kernel_ungrouped_cycles. The storm only reads: nothing is written
// back, the page writer is sent nothing, and the missing associative
// memory costs nothing, so its whole gap over P5's kernel figure is
// single-victim eviction.
// The test pins both halves: the kernel wins overall, and the win stays
// modest, so a runaway cost-model change in either direction fails.
func TestShapePageFaultPath(t *testing.T) {
	baselineCost, kernelCost := baselineFaultStorm(16, 32), ungroupedFaultStorm()
	if kernelCost >= baselineCost {
		t.Errorf("kernel fault path %d cycles >= baseline %d; the elevator's positioning savings should outweigh the recode", kernelCost, baselineCost)
	}
	speedup := 100 * float64(baselineCost-kernelCost) / float64(baselineCost)
	if speedup > 40 {
		t.Errorf("kernel fault path %.1f%% cheaper; the device scheduling win should stay modest (<40%%)", speedup)
	}
}

// TestShapeQuotaCost: P6's quota charging is O(1) against the
// statically bound cell and O(depth) for the baseline's dynamic upward
// search.
func TestShapeQuotaCost(t *testing.T) {
	k1, b1 := quotaGrowth(1, 0)
	k8, b8 := quotaGrowth(8, 0)
	// Static cell: depth-independent (identical, not merely close).
	if k1 != k8 {
		t.Errorf("kernel growth cost varies with depth: %d at 1, %d at 8", k1, k8)
	}
	// Dynamic walk: grows with depth.
	if b8 <= b1 {
		t.Errorf("baseline growth cost did not grow with depth: %d at 1, %d at 8", b1, b8)
	}
	// Deep in the hierarchy, the redesign wins.
	if k8 >= b8 {
		t.Errorf("at depth 8, kernel %d >= baseline %d; the static binding should win", k8, b8)
	}
}

// TestShapeTwoLevelScheduler: P8's two-level scheduler performs about
// the same as the one-level scheduler (the paper's expectation for the
// combined layers).
func TestShapeTwoLevelScheduler(t *testing.T) {
	oneLevel, twoLevel := schedulerQuanta()
	diff := twoLevel - oneLevel
	if diff < 0 {
		diff = -diff
	}
	if 100*diff > 10*oneLevel {
		t.Errorf("scheduler costs diverge more than 10%%: one-level %d, two-level %d", oneLevel, twoLevel)
	}
}

// TestShapeSearchPrimitive: C2's probe of a mythical directory costs
// exactly what a probe of a real one does, so not even the cycle meter
// tells the caller which identifier it holds.
func TestShapeSearchPrimitive(t *testing.T) {
	real, mythical := searchProbe()
	if real != mythical || real <= 0 {
		t.Errorf("probe costs %d cycles for a real directory, %d for a mythical one; they must be equal and positive", real, mythical)
	}
}
