package upsignal

import (
	"errors"
	"testing"
)

func TestRegisterValidation(t *testing.T) {
	d := NewDispatcher()
	if err := d.Register("dir", func(Signal) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("dir", func(Signal) error { return nil }); err == nil {
		t.Error("double registration succeeded")
	}
	if err := d.Register("x", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestRaiseRequiresHandler(t *testing.T) {
	d := NewDispatcher()
	if err := d.Raise(Signal{Target: "nobody"}); err == nil {
		t.Error("raise to unregistered module succeeded")
	}
}

func TestHandlerRunsAfterRaiserUnwinds(t *testing.T) {
	// The property the mechanism exists for: the raiser's call
	// chain completes before the handler runs.
	d := NewDispatcher()
	var seq []string
	if err := d.Register("dir", func(sig Signal) error {
		seq = append(seq, "handler:"+sig.Args.(string))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lowLevel := func() {
		if err := d.Raise(Signal{Target: "dir", Args: "update-entry"}); err != nil {
			t.Error(err)
		}
		seq = append(seq, "raiser-unwound")
	}
	lowLevel()
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d", d.Pending())
	}
	n, err := d.Dispatch()
	if err != nil || n != 1 {
		t.Fatalf("Dispatch = %d, %v", n, err)
	}
	want := []string{"raiser-unwound", "handler:update-entry"}
	if len(seq) != 2 || seq[0] != want[0] || seq[1] != want[1] {
		t.Errorf("sequence = %v, want %v", seq, want)
	}
}

func TestHandlerMayRaiseFurtherSignals(t *testing.T) {
	d := NewDispatcher()
	var got []int
	if err := d.Register("a", func(sig Signal) error {
		got = append(got, sig.Args.(int))
		if sig.Args.(int) < 3 {
			return d.Raise(Signal{Target: "a", Args: sig.Args.(int) + 1})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Raise(Signal{Target: "a", Args: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := d.Dispatch()
	if err != nil || n != 3 {
		t.Fatalf("Dispatch = %d, %v", n, err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("got = %v", got)
	}
}

func TestHandlerErrorStopsDispatch(t *testing.T) {
	d := NewDispatcher()
	boom := errors.New("boom")
	calls := 0
	if err := d.Register("a", func(Signal) error {
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = d.Raise(Signal{Target: "a"})
	_ = d.Raise(Signal{Target: "a"})
	n, err := d.Dispatch()
	if !errors.Is(err, boom) || n != 0 {
		t.Fatalf("Dispatch = %d, %v", n, err)
	}
	if d.Pending() != 1 {
		t.Errorf("Pending = %d, want the second signal retained", d.Pending())
	}
	// A later dispatch drains it.
	n, err = d.Dispatch()
	if err != nil || n != 1 {
		t.Errorf("second Dispatch = %d, %v", n, err)
	}
	raised, handled := d.Stats()
	if raised != 2 || handled != 1 {
		t.Errorf("Stats = %d raised, %d handled", raised, handled)
	}
}

func TestReentrantDispatchPanics(t *testing.T) {
	d := NewDispatcher()
	if err := d.Register("a", func(Signal) error {
		_, _ = d.Dispatch() // structural error
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = d.Raise(Signal{Target: "a"})
	if !panics(func() { _, _ = d.Dispatch() }) {
		t.Error("re-entrant Dispatch did not panic")
	}
}

// panics reports whether f panicked, recovering the panic.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestDispatchGuardClearsAfterPanic: a handler panic that the caller
// recovers, a re-entrant call's included, leaves the dispatcher free,
// so the next Dispatch runs the remaining signals.
func TestDispatchGuardClearsAfterPanic(t *testing.T) {
	d := NewDispatcher()
	calls := 0
	if err := d.Register("a", func(Signal) error {
		calls++
		switch calls {
		case 1:
			panic("handler failed")
		case 2:
			_, _ = d.Dispatch() // structural error
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = d.Raise(Signal{Target: "a"})
	}
	for i := 0; i < 2; i++ {
		if !panics(func() { _, _ = d.Dispatch() }) {
			t.Fatalf("Dispatch %d did not panic", i+1)
		}
	}
	n, err := d.Dispatch()
	if err != nil || n != 1 {
		t.Errorf("Dispatch after recovered panics = %d, %v; want the last signal handled", n, err)
	}
}

func TestFIFOOrder(t *testing.T) {
	d := NewDispatcher()
	var got []int
	_ = d.Register("a", func(sig Signal) error {
		got = append(got, sig.Args.(int))
		return nil
	})
	for i := 0; i < 5; i++ {
		if err := d.Raise(Signal{Target: "a", Args: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Dispatch(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
	}
}
