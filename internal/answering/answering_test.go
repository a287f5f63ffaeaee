package answering

import (
	"errors"
	"testing"

	"multics/internal/aim"
	"multics/internal/hw"
)

func newService(t *testing.T, mode Mode) (*Service, *hw.CostMeter) {
	t.Helper()
	meter := &hw.CostMeter{}
	created := 0
	s := New(mode, meter, func(principal string, label aim.Label) (any, error) {
		created++
		return created, nil
	})
	if err := s.Register("alice.sys", "hunter2", aim.Label{Level: aim.Secret}); err != nil {
		t.Fatal(err)
	}
	return s, meter
}

func TestLoginLogout(t *testing.T) {
	s, _ := newService(t, Monolithic)
	sess, err := s.Login("alice.sys", "hunter2", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Principal != "alice.sys" || sess.Process == nil {
		t.Errorf("session = %+v", sess)
	}
	if err := s.Logout(sess, 420); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].CPUUsed != 420 || recs[0].Open {
		t.Errorf("records = %+v", recs)
	}
	if err := s.Logout(sess, 0); err == nil {
		t.Error("double logout succeeded")
	}
	if err := s.Logout(nil, 0); err == nil {
		t.Error("nil logout succeeded")
	}
}

// TestLogoutRecyclesHandle: a session's handle goes on the free list
// at Logout, names no session there (a second Logout fails), and the
// next Login hands it out again holding only its own session.
func TestLogoutRecyclesHandle(t *testing.T) {
	s, _ := newService(t, Monolithic)
	first, err := s.Login("alice.sys", "hunter2", aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Logout(first, 1); err != nil {
		t.Fatal(err)
	}
	if first.Process != nil {
		t.Errorf("a logged-out handle still names process %v", first.Process)
	}
	if err := s.Logout(first, 0); err == nil {
		t.Error("logout of a handle on the free list succeeded")
	}
	second, err := s.Login("alice.sys", "hunter2", aim.Label{Level: aim.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("Login built a new handle with one on the free list")
	}
	if second.Label.Level != aim.Secret || second.Process != 2 {
		t.Errorf("reused handle = %+v, want the second session's label and process", second)
	}
	if err := s.Logout(second, 2); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if len(recs) != 2 || recs[0].CPUUsed != 1 || recs[1].CPUUsed != 2 || recs[0].Open || recs[1].Open {
		t.Errorf("records = %+v", recs)
	}
}

func TestBadUserAndBadPasswordIndistinguishable(t *testing.T) {
	s, _ := newService(t, Monolithic)
	_, errUser := s.Login("nobody.x", "hunter2", aim.Bottom)
	_, errPass := s.Login("alice.sys", "wrong", aim.Bottom)
	if !errors.Is(errUser, ErrBadCredentials) || !errors.Is(errPass, ErrBadCredentials) {
		t.Fatalf("errors = %v / %v", errUser, errPass)
	}
	if errUser.Error() != errPass.Error() {
		t.Error("login failure reveals whether the user exists")
	}
}

func TestClearanceEnforced(t *testing.T) {
	s, _ := newService(t, Monolithic)
	// Alice is cleared to Secret: Top-Secret login denied.
	if _, err := s.Login("alice.sys", "hunter2", aim.Label{Level: aim.TopSecret}); !errors.Is(err, ErrClearance) {
		t.Errorf("over-clearance login = %v", err)
	}
	// Logging in at or below clearance works.
	if _, err := s.Login("alice.sys", "hunter2", aim.Label{Level: aim.Secret}); err != nil {
		t.Errorf("at-clearance login = %v", err)
	}
	if _, err := s.Login("alice.sys", "hunter2", aim.Bottom); err != nil {
		t.Errorf("below-clearance login = %v", err)
	}
}

func TestDoubleRegister(t *testing.T) {
	s, _ := newService(t, Monolithic)
	if err := s.Register("alice.sys", "x", aim.Bottom); !errors.Is(err, ErrAlreadyOn) {
		t.Errorf("double register = %v", err)
	}
}

func TestCreateProcessFailurePropagates(t *testing.T) {
	meter := &hw.CostMeter{}
	boom := errors.New("no more processes")
	s := New(Monolithic, meter, func(string, aim.Label) (any, error) { return nil, boom })
	if err := s.Register("a.b", "p", aim.Top); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Login("a.b", "p", aim.Bottom); !errors.Is(err, boom) {
		t.Errorf("login = %v", err)
	}
	if len(s.Records()) != 0 {
		t.Error("failed login recorded a session")
	}
}

func TestSplitIsAboutThreePercentSlower(t *testing.T) {
	// P3's shape: the split answering service, in its preliminary
	// implementation, ran about 3% slower.
	loginCost := func(mode Mode) int64 {
		s, meter := newService(t, mode)
		start := meter.Snapshot()
		if _, err := s.Login("alice.sys", "hunter2", aim.Bottom); err != nil {
			t.Fatal(err)
		}
		return meter.Since(start)
	}
	mono := loginCost(Monolithic)
	split := loginCost(Split)
	slowdown := 100 * float64(split-mono) / float64(mono)
	if slowdown <= 0 {
		t.Fatalf("split login not slower: %d vs %d", split, mono)
	}
	if slowdown < 1 || slowdown > 6 {
		t.Errorf("split slowdown = %.1f%%, want about 3%%", slowdown)
	}
}

func TestKernelLinesPerMode(t *testing.T) {
	if KernelLines(Monolithic) != 10000 {
		t.Errorf("monolithic lines = %d", KernelLines(Monolithic))
	}
	if KernelLines(Split) != 1000 {
		t.Errorf("split lines = %d", KernelLines(Split))
	}
	if Monolithic.String() == "" || Split.String() == "" {
		t.Error("mode names empty")
	}
}

func TestAccountingAccumulates(t *testing.T) {
	s, _ := newService(t, Split)
	if err := s.Register("bob.dev", "pw", aim.Bottom); err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	for i := 0; i < 3; i++ {
		sess, err := s.Login("bob.dev", "pw", aim.Bottom)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for i, sess := range sessions {
		if err := s.Logout(sess, int64(100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	var total int64
	for _, r := range recs {
		if r.Principal != "bob.dev" || r.Open {
			t.Errorf("record = %+v", r)
		}
		total += r.CPUUsed
	}
	if total != 600 {
		t.Errorf("total CPU = %d", total)
	}
}
