// Package aim implements the Access Isolation Mechanism: the
// particular set of security controls the project added to Multics to
// realize the MITRE model of sensitivity levels and compartments
// (Bell and LaPadula, 1973). Every piece of information is labelled
// with a sensitivity level and a set of compartments, and security
// checks are made wherever information could cross level or
// compartment boundaries: a process may read an object only if the
// process label dominates the object label (no read up), and may
// write an object only if the object label dominates the process
// label (no write down).
//
// Labels form a lattice under Dominates; Join and Meet compute least
// upper and greatest lower bounds, which is what flow-control
// arguments about combined information need.
package aim

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a sensitivity level. AIM provides eight, 0 (lowest)
// through 7.
type Level int

// NLevels is the number of sensitivity levels.
const NLevels = 8

// Conventional names for the first four levels.
const (
	Unclassified Level = 0
	Confidential Level = 2
	Secret       Level = 5
	TopSecret    Level = 7
)

// Valid reports whether the level is one of the eight AIM provides.
func (l Level) Valid() bool { return l >= 0 && l < NLevels }

func (l Level) String() string {
	switch l {
	case Unclassified:
		return "unclassified"
	case Confidential:
		return "confidential"
	case Secret:
		return "secret"
	case TopSecret:
		return "top-secret"
	default:
		return fmt.Sprintf("level-%d", int(l))
	}
}

// Compartments is a set of compartment (category) bits. AIM provides
// up to 18 compartments; the simulation allows 64.
type Compartments uint64

// MaxCompartments is the number of distinct compartment bits.
const MaxCompartments = 64

// Compartment returns the set containing only compartment i.
func Compartment(i int) Compartments {
	if i < 0 || i >= MaxCompartments {
		panic(fmt.Sprintf("aim: compartment %d out of range", i))
	}
	return Compartments(1) << uint(i)
}

// Contains reports whether c includes every compartment in sub.
func (c Compartments) Contains(sub Compartments) bool { return c&sub == sub }

func (c Compartments) String() string {
	if c == 0 {
		return "{}"
	}
	var names []string
	for i := 0; i < MaxCompartments; i++ {
		if c.Contains(Compartment(i)) {
			names = append(names, fmt.Sprintf("c%d", i))
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// A Label is the sensitivity marking attached to every subject
// (process) and object (segment, directory, message) in the system.
type Label struct {
	Level Level
	Cats  Compartments
}

// Bottom is the lowest label: unclassified, no compartments. It is
// the label of public information and the default for new objects.
var Bottom = Label{Level: Unclassified}

// Top is the highest label.
var Top = Label{Level: TopSecret, Cats: ^Compartments(0)}

func (l Label) String() string { return fmt.Sprintf("%v %v", l.Level, l.Cats) }

// Valid reports whether the label's level is in range.
func (l Label) Valid() bool { return l.Level.Valid() }

// Dominates reports whether information labelled o may flow to a
// holder labelled l: l's level is at least o's and l holds every
// compartment of o. Dominates is a partial order.
func (l Label) Dominates(o Label) bool {
	return l.Level >= o.Level && l.Cats.Contains(o.Cats)
}

// A FlowError reports a forbidden information flow, naming the rule
// violated.
type FlowError struct {
	Op              string // "read" or "write"
	Subject, Object Label
	Rule            string
}

func (e *FlowError) Error() string {
	return fmt.Sprintf("aim: %s forbidden (%s): subject %v, object %v", e.Op, e.Rule, e.Subject, e.Object)
}

// CheckRead enforces the simple security property: a subject may read
// an object only if the subject's label dominates the object's (no
// read up).
func CheckRead(subject, object Label) error {
	if subject.Dominates(object) {
		return nil
	}
	return &FlowError{Op: "read", Subject: subject, Object: object, Rule: "simple security property: no read up"}
}

// CheckWrite enforces the *-property: a subject may write an object
// only if the object's label dominates the subject's (no write down),
// so that information the subject holds cannot leak to lower labels.
func CheckWrite(subject, object Label) error {
	if object.Dominates(subject) {
		return nil
	}
	return &FlowError{Op: "write", Subject: subject, Object: object, Rule: "*-property: no write down"}
}
