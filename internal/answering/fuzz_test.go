package answering

import (
	"errors"
	"testing"

	"multics/internal/aim"
	"multics/internal/hw"
)

// fuzzScript encodes frames for FuzzHandleFrame: per frame a
// connection byte, a length byte and that many characters, one word
// each.
func fuzzScript(frames ...any) []byte {
	var b []byte
	for i := 0; i < len(frames); i += 2 {
		line := frames[i+1].(string)
		b = append(append(b, byte(frames[i].(int)), byte(len(line))), line...)
	}
	return b
}

// FuzzHandleFrame drives a connector with arbitrary frames on four
// connections (fuzzScript's encoding; a short last frame keeps what is
// there) and checks its accounting after each: HandleFrame never
// panics, every frame moves exactly one of Logins, Logouts,
// LoginFailures, IOFrames and Orphans by one (IOWords by the frame's
// words when it is IO), and the open sessions number Logins - Logouts
// and match the service's open records. Users u.x and stuck.x log in
// with password pw; stuck.x's processes cannot be destroyed.
func FuzzHandleFrame(f *testing.F) {
	f.Add(fuzzScript(0, "login u.x pw", 0, "hello", 0, "logout"))
	f.Add(fuzzScript(1, "login u.x pw", 1, "login u.x pw", 2, "login u.x bad", 3, "login", 2, "logout"))
	f.Add(fuzzScript(0, "", 1, "  logout  ", 1, "logout now", 0, "login  u.x\tpw", 0, "logout"))
	// A process that could not be destroyed once left its session
	// closed but uncounted: Logins - Logouts overstated the sessions.
	f.Add(fuzzScript(0, "login stuck.x pw", 1, "login u.x pw", 0, "logout", 1, "logout"))
	f.Fuzz(func(t *testing.T, script []byte) {
		svc := New(Split, &hw.CostMeter{}, func(principal string, _ aim.Label) (any, error) { return principal, nil })
		for _, u := range []string{"u.x", "stuck.x"} {
			if err := svc.Register(u, "pw", aim.Top); err != nil {
				t.Fatal(err)
			}
		}
		c := NewConnector(svc, func(proc any) error {
			if proc == "stuck.x" {
				return errors.New("process cannot be destroyed")
			}
			return nil
		})
		for len(script) > 0 {
			conn, n := int(script[0]%4), 0
			if len(script) > 1 {
				n = int(script[1])
			}
			script = script[min(2, len(script)):]
			data := make([]hw.Word, min(n, len(script)))
			for i := range data {
				data[i] = hw.Word(script[i])
			}
			script = script[len(data):]

			before := c.Stats()
			err := c.HandleFrame(conn, data)
			st := c.Stats()
			// The counters only grow, so a sum of one is one counter by one.
			frames := func(st ConnectorStats) int64 {
				return st.Logins + st.Logouts + st.LoginFailures + st.IOFrames + st.Orphans
			}
			io := st.IOFrames - before.IOFrames
			if frames(st)-frames(before) != 1 || st.IOWords-before.IOWords != io*int64(len(data)) {
				t.Fatalf("frame %q on %d (error %v) moved the counters %+v -> %+v, want exactly one frame counter by one",
					DecodeLine(data), conn, err, before, st)
			}
			open, records := int64(0), int64(0)
			for conn := 0; conn < 4; conn++ {
				if c.Session(conn) != nil {
					open++
				}
			}
			for _, r := range svc.Records() {
				if r.Open {
					records++
				}
			}
			if open != st.Logins-st.Logouts || records != open {
				t.Fatalf("after frame %q on %d (error %v): %d open sessions, the service %d, Logins - Logouts = %d - %d",
					DecodeLine(data), conn, err, open, records, st.Logins, st.Logouts)
			}
		}
	})
}
