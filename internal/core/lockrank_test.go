package core

import (
	"testing"

	"multics/internal/lockrank"
)

// TestLockRanksFollowCertificationOrder checks that every ranked lock
// declared by a manager carries exactly the rank its module's
// certification layer assigns, and that the kernel's own gate lock
// ranks one layer above the whole lattice.
func TestLockRanksFollowCertificationOrder(t *testing.T) {
	k := boot(t, nil)
	layers := k.CertificationOrder()
	layerOf := make(map[string]int)
	for i, layer := range layers {
		for _, mod := range layer {
			layerOf[mod] = i
		}
	}
	table := lockrank.Table()
	seen := make(map[string]bool)
	for _, e := range table {
		seen[e.Module] = true
		if e.Module == GateModule {
			if e.Layer != len(layers) {
				t.Errorf("kernel gate lock at layer %d, want %d (above the lattice)", e.Layer, len(layers))
			}
			continue
		}
		want, inLattice := layerOf[e.Module]
		if !inLattice {
			if e.Rank != lockrank.Unranked {
				t.Errorf("lock %s ranked %d but its module is not in the lattice", e.Name(), e.Rank)
			}
			continue
		}
		if e.Layer != want {
			t.Errorf("lock %s at layer %d, certification order says %d", e.Name(), e.Layer, want)
		}
		if e.Rank != lockrank.Rank(want*lockrank.MaxSubs+e.Sub) {
			t.Errorf("lock %s rank %d, want %d", e.Name(), e.Rank, want*lockrank.MaxSubs+e.Sub)
		}
	}
	// Every migrated manager must actually have a ranked lock.
	for _, mod := range []string{ModCoreSeg, ModVProc, ModFrame, ModQuota, ModSegment, ModKnownSeg, ModDir, ModUProc, GateModule} {
		if !seen[mod] {
			t.Errorf("module %s declares no ranked lock", mod)
		}
	}
}
