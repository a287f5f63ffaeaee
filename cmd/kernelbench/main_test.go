package main

import (
	"reflect"
	"testing"

	"multics/internal/lockrank"
)

// TestPagingStormRepeats: the multiprocessor paging storm runs under
// the seeded executor, so its makespan is the same run over run.
func TestPagingStormRepeats(t *testing.T) {
	busiest, rounds := pagingStorm(sim, 2, 16, false)
	again, roundsAgain := pagingStorm(sim, 2, 16, false)
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
	if !lockrank.Checking() {
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
