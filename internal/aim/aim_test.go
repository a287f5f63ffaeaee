package aim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func lbl(level Level, cats ...int) Label {
	var c Compartments
	for _, i := range cats {
		c |= Compartment(i)
	}
	return Label{Level: level, Cats: c}
}

func TestDominatesBasics(t *testing.T) {
	cases := []struct {
		a, b Label
		want bool
	}{
		{lbl(Secret), lbl(Unclassified), true},
		{lbl(Unclassified), lbl(Secret), false},
		{lbl(Secret, 1), lbl(Secret), true},
		{lbl(Secret), lbl(Secret, 1), false},
		{lbl(Secret, 1, 2), lbl(Confidential, 1), true},
		{lbl(Secret, 1), lbl(Confidential, 2), false}, // missing compartment
		{lbl(Secret, 1), lbl(Secret, 1), true},        // reflexive
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%v Dominates %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIncomparableLabels(t *testing.T) {
	a := lbl(Secret, 1)
	b := lbl(Secret, 2)
	if a.Dominates(b) || b.Dominates(a) {
		t.Error("disjoint-compartment labels reported comparable")
	}
	if err := CheckRead(a, b); err == nil {
		t.Error("read across incomparable labels allowed")
	}
	if err := CheckWrite(a, b); err == nil {
		t.Error("write across incomparable labels allowed")
	}
}

func TestCheckReadWrite(t *testing.T) {
	subject := lbl(Secret, 1)
	low := lbl(Unclassified)
	high := lbl(TopSecret, 1, 2)

	if err := CheckRead(subject, low); err != nil {
		t.Errorf("read down: %v", err)
	}
	if err := CheckRead(subject, high); err == nil {
		t.Error("read up allowed")
	} else if fe := (*FlowError)(nil); !errors.As(err, &fe) || !strings.Contains(err.Error(), "no read up") {
		t.Errorf("read-up error = %v", err)
	}
	if err := CheckWrite(subject, high); err != nil {
		t.Errorf("write up: %v", err)
	}
	if err := CheckWrite(subject, low); err == nil {
		t.Error("write down allowed")
	} else if !strings.Contains(err.Error(), "no write down") {
		t.Errorf("write-down error = %v", err)
	}
	// Same label: both directions allowed.
	if err := CheckRead(subject, subject); err != nil {
		t.Errorf("read at same label: %v", err)
	}
	if err := CheckWrite(subject, subject); err != nil {
		t.Errorf("write at same label: %v", err)
	}
}

func TestTopBottom(t *testing.T) {
	labels := []Label{lbl(Unclassified), lbl(Secret, 3), lbl(TopSecret, 1, 5), Top, Bottom}
	for _, l := range labels {
		if !Top.Dominates(l) {
			t.Errorf("Top does not dominate %v", l)
		}
		if !l.Dominates(Bottom) {
			t.Errorf("%v does not dominate Bottom", l)
		}
	}
}

func TestCompartments(t *testing.T) {
	c := Compartment(0) | Compartment(5)
	if !c.Contains(Compartment(5)) || c.Contains(Compartment(1)) {
		t.Error("Contains wrong")
	}
	if got := c.String(); got != "{c0,c5}" {
		t.Errorf("String = %q", got)
	}
	if Compartments(0).String() != "{}" {
		t.Errorf("empty String = %q", Compartments(0).String())
	}
	defer func() {
		if recover() == nil {
			t.Error("Compartment(64) did not panic")
		}
	}()
	Compartment(64)
}

func TestLevelNames(t *testing.T) {
	if Unclassified.String() != "unclassified" || TopSecret.String() != "top-secret" {
		t.Error("level names wrong")
	}
	if Level(3).String() != "level-3" {
		t.Errorf("Level(3) = %q", Level(3).String())
	}
	if !Level(0).Valid() || !Level(7).Valid() || Level(8).Valid() || Level(-1).Valid() {
		t.Error("Valid wrong")
	}
}

func genLabel(a uint8, b uint16) Label {
	return Label{Level: Level(a % NLevels), Cats: Compartments(b)}
}

// Property: Dominates is a partial order (reflexive, antisymmetric,
// transitive).
func TestDominatesPartialOrder(t *testing.T) {
	refl := func(a uint8, b uint16) bool {
		l := genLabel(a, b)
		return l.Dominates(l)
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	antisym := func(a1 uint8, b1 uint16, a2 uint8, b2 uint16) bool {
		x, y := genLabel(a1, b1), genLabel(a2, b2)
		if x.Dominates(y) && y.Dominates(x) {
			return x == y
		}
		return true
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(a1 uint8, b1 uint16, a2 uint8, b2 uint16, a3 uint8, b3 uint16) bool {
		x, y, z := genLabel(a1, b1), genLabel(a2, b2), genLabel(a3, b3)
		if x.Dominates(y) && y.Dominates(z) {
			return x.Dominates(z)
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

// Property: the flow checks compose safely — if subject s can read
// object a and write object b, then b's label dominates a's, so
// information never flows downward through a subject.
func TestNoDownwardFlowThroughSubject(t *testing.T) {
	f := func(sa uint8, sb uint16, aa uint8, ab uint16, ba uint8, bb uint16) bool {
		s, a, b := genLabel(sa, sb), genLabel(aa, ab), genLabel(ba, bb)
		if CheckRead(s, a) == nil && CheckWrite(s, b) == nil {
			return b.Dominates(a)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelValidEqual(t *testing.T) {
	if !(Label{Level: Secret}).Valid() || (Label{Level: Level(9)}).Valid() {
		t.Error("Valid wrong")
	}
}
