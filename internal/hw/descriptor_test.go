package hw

import (
	"fmt"
	"math/rand"
	"testing"
)

// ptwModel is a fully materialized page table: the reference the lazy
// PageTable must agree with, operation by operation.
type ptwModel []PTW

func (m ptwModel) bad(p int) bool { return p < 0 || p >= len(m) }

func (m ptwModel) translate(p int, write, lockHW bool) (PTW, FaultKind, bool, bool) {
	if m.bad(p) {
		return PTW{}, FaultBounds, true, false
	}
	d := &m[p]
	switch {
	case d.Lock:
		return *d, FaultLockedDescriptor, true, false
	case d.QuotaTrap:
		return *d, FaultQuota, true, false
	case !d.Present:
		if lockHW {
			d.Lock = true
			return *d, FaultMissingPage, true, true
		}
		return *d, FaultMissingPage, true, false
	}
	d.Used = true
	if write {
		d.Modified = true
	}
	return *d, 0, false, false
}

func randPTW(rng *rand.Rand) PTW {
	return PTW{
		Frame:     rng.Intn(4),
		Present:   rng.Intn(2) == 0,
		Lock:      rng.Intn(4) == 0,
		QuotaTrap: rng.Intn(4) == 0,
		Used:      rng.Intn(2) == 0,
		Modified:  rng.Intn(2) == 0,
	}
}

// pastValues are the two descriptors the kernel leaves past a page
// table's prefix: not present, and quota-trapping.
var pastValues = [2]PTW{{}, {QuotaTrap: true}}

// TestPageTableMatchesMaterializedModel runs seeded random sequences of
// every PageTable operation against a fully materialized []PTW and
// requires every result, error and fault kind to agree, with
// descriptor-lock hardware on and off, both past values and pages
// outside the table. A translation that faults without setting the
// lock bit must not grow the materialized prefix.
func TestPageTableMatchesMaterializedModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10)
		past := pastValues[rng.Intn(2)]
		model := make(ptwModel, n)
		init := make([]PTW, rng.Intn(n+1))
		for i := range model {
			model[i] = past
			if i < len(init) {
				init[i] = randPTW(rng)
				model[i] = init[i]
			}
		}
		pt := NewPageTable(n)
		pt.Reload(len(init), func(p int) PTW { return init[p] }, past)
		for step := 0; step < 300; step++ {
			p := rng.Intn(n+4) - 2
			at := fmt.Sprintf("seed %d step %d page %d", seed, step, p)
			switch op := rng.Intn(6); op {
			case 0:
				got, err := pt.Get(p)
				if (err != nil) != model.bad(p) || (err == nil && got != model[p]) {
					t.Fatalf("%s: Get = %+v, %v; model %v", at, got, err, model)
				}
			case 1:
				w := randPTW(rng)
				if err := pt.Set(p, w); (err != nil) != model.bad(p) {
					t.Fatalf("%s: Set error %v", at, err)
				}
				if !model.bad(p) {
					model[p] = w
				}
			case 2:
				flip := randPTW(rng)
				fn := func(d *PTW) {
					d.Frame += flip.Frame
					d.Present = d.Present != flip.Present
					d.Lock = d.Lock != flip.Lock
					d.QuotaTrap = d.QuotaTrap != flip.QuotaTrap
				}
				got, err := pt.Update(p, fn)
				if (err != nil) != model.bad(p) {
					t.Fatalf("%s: Update error %v", at, err)
				}
				if !model.bad(p) {
					fn(&model[p])
					if got != model[p] {
						t.Fatalf("%s: Update = %+v, model %+v", at, got, model[p])
					}
				}
			case 3:
				w := pastValues[rng.Intn(2)]
				if rng.Intn(4) == 0 {
					w = randPTW(rng)
				}
				if err := pt.ResetFrom(p, w); (err != nil) != (p < 0) {
					t.Fatalf("%s: ResetFrom error %v", at, err)
				}
				for i := p; i >= 0 && i < n; i++ {
					model[i] = w
				}
			case 4:
				if err := pt.Unlock(p); (err != nil) != model.bad(p) {
					t.Fatalf("%s: Unlock error %v", at, err)
				}
				if !model.bad(p) {
					model[p].Lock = false
				}
			case 5:
				write, lockHW := rng.Intn(2) == 0, rng.Intn(2) == 0
				prefix := len(pt.ptws)
				got, kind, fault, locked := pt.translate(p, write, lockHW)
				want, wkind, wfault, wlocked := model.translate(p, write, lockHW)
				if got != want || kind != wkind || fault != wfault || locked != wlocked {
					t.Fatalf("%s: translate(write=%v, lockHW=%v) = %+v %v %v %v, model %+v %v %v %v",
						at, write, lockHW, got, kind, fault, locked, want, wkind, wfault, wlocked)
				}
				if fault && !locked && len(pt.ptws) != prefix {
					t.Fatalf("%s: a %v fault grew the prefix from %d to %d", at, kind, prefix, len(pt.ptws))
				}
			}
			if pt.Len() != n {
				t.Fatalf("%s: Len %d, want %d", at, pt.Len(), n)
			}
		}
		for p := range model {
			if got, _ := pt.Get(p); got != model[p] {
				t.Fatalf("seed %d: final descriptor %d = %+v, model %+v", seed, p, got, model[p])
			}
		}
	}
}

// TestDescriptorTableMatchesMaterializedModel is the same check for
// DescriptorTable's Get, Set and Clear against a fully materialized
// []SDW.
func TestDescriptorTableMatchesMaterializedModel(t *testing.T) {
	tables := [2]*PageTable{NewPageTable(1), NewPageTable(2)}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		model := make([]SDW, n)
		bad := func(s int) bool { return s < 0 || s >= n }
		dt := NewDescriptorTable(n)
		for step := 0; step < 300; step++ {
			s := rng.Intn(n+4) - 2
			at := fmt.Sprintf("seed %d step %d segno %d", seed, step, s)
			switch rng.Intn(3) {
			case 0:
				got, err := dt.Get(s)
				if (err != nil) != bad(s) || (err == nil && got != model[s]) {
					t.Fatalf("%s: Get = %+v, %v", at, got, err)
				}
			case 1:
				var w SDW
				if rng.Intn(4) != 0 {
					w = SDW{
						Present:   rng.Intn(2) == 0,
						Table:     tables[rng.Intn(2)],
						Access:    AccessMode(rng.Intn(8)),
						MaxRing:   rng.Intn(8),
						WriteRing: rng.Intn(8),
					}
				}
				if err := dt.Set(s, w); (err != nil) != bad(s) {
					t.Fatalf("%s: Set error %v", at, err)
				}
				if !bad(s) {
					model[s] = w
				}
			case 2:
				if err := dt.Clear(s); (err != nil) != bad(s) {
					t.Fatalf("%s: Clear error %v", at, err)
				}
				if !bad(s) {
					model[s] = SDW{}
				}
			}
			if dt.Len() != n {
				t.Fatalf("%s: Len %d, want %d", at, dt.Len(), n)
			}
		}
	}
}
