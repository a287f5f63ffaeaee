package answering

import (
	"fmt"
	"strings"
	"sync"

	"multics/internal/aim"
	"multics/internal/hw"
)

// A Connector is the connection-driven front door of the answering
// service: terminal lines arrive as frames from the front-end
// processor's connection plane, and the dialog — login, session IO,
// logout — is driven entirely by what comes up the line, instead of
// by direct calls on the Service. This is the organization the
// front-end processor assumes: the answering service sits behind the
// connection plane and consumes deliveries.
//
// The line protocol is one command per frame, characters packed one
// per word:
//
//	login <principal> <password>   open a session at aim.Bottom
//	logout                         close the session
//	anything else                  session IO, counted per word
type Connector struct {
	svc *Service
	// destroy, when non-nil, ends the session's process at logout
	// (the connector holds opaque handles, like the storm driver).
	destroy func(proc any) error

	mu       sync.Mutex
	sessions map[int]*Session
	st       ConnectorStats
}

// ConnectorStats counts the connection-driven dialog.
type ConnectorStats struct {
	// Logins counts sessions opened, Logouts sessions closed on the
	// line, even when ending the session's process then failed.
	Logins  int64
	Logouts int64
	// LoginFailures counts rejected login lines (bad credentials,
	// double login, malformed command).
	LoginFailures int64
	// IOFrames and IOWords count session IO traffic.
	IOFrames int64
	IOWords  int64
	// Orphans counts IO frames for connections with no session.
	Orphans int64
}

// NewConnector wraps a service. destroy may be nil.
func NewConnector(svc *Service, destroy func(proc any) error) *Connector {
	return &Connector{svc: svc, destroy: destroy, sessions: make(map[int]*Session)}
}

// EncodeLine packs a command line one character per word, the
// front-end terminal framing (without the end-of-block sentinel the
// wire protocol adds).
func EncodeLine(line string) []hw.Word {
	w := make([]hw.Word, len(line))
	for i := 0; i < len(line); i++ {
		w[i] = hw.Word(line[i])
	}
	return w
}

// DecodeLine is EncodeLine's inverse.
func DecodeLine(data []hw.Word) string {
	b := make([]byte, len(data))
	for i, w := range data {
		b[i] = byte(w)
	}
	return string(b)
}

// HandleFrame consumes one delivered frame for a connection. Errors
// are counted and returned; the connection plane treats them as
// dialog outcomes, not delivery failures (the frame was delivered).
func (c *Connector) HandleFrame(conn int, data []hw.Word) error {
	line := DecodeLine(data)
	fields := strings.Fields(line)
	if len(fields) > 0 && fields[0] == "login" {
		if len(fields) != 3 {
			c.count(func(st *ConnectorStats) { st.LoginFailures++ })
			return fmt.Errorf("answering: malformed login on connection %d", conn)
		}
		c.mu.Lock()
		_, on := c.sessions[conn]
		c.mu.Unlock()
		if on {
			c.count(func(st *ConnectorStats) { st.LoginFailures++ })
			return fmt.Errorf("answering: connection %d already logged in", conn)
		}
		sess, err := c.svc.Login(fields[1], fields[2], aim.Bottom)
		if err != nil {
			c.count(func(st *ConnectorStats) { st.LoginFailures++ })
			return err
		}
		c.mu.Lock()
		c.sessions[conn] = sess
		c.st.Logins++
		c.mu.Unlock()
		return nil
	}
	if len(fields) == 1 && fields[0] == "logout" {
		// The session leaves the table and is counted together, so a
		// failure to close it below cannot unbalance Logins - Logouts.
		c.mu.Lock()
		sess, on := c.sessions[conn]
		delete(c.sessions, conn)
		if on {
			c.st.Logouts++
		} else {
			c.st.Orphans++
		}
		c.mu.Unlock()
		if !on {
			return fmt.Errorf("answering: logout on idle connection %d", conn)
		}
		// The handle is reused once Logout returns: take the process
		// first.
		proc := sess.Process
		if err := c.svc.Logout(sess, 0); err != nil {
			return err
		}
		if c.destroy != nil && proc != nil {
			return c.destroy(proc)
		}
		return nil
	}
	// Session IO: anything on a logged-in line is traffic.
	c.mu.Lock()
	_, on := c.sessions[conn]
	if on {
		c.st.IOFrames++
		c.st.IOWords += int64(len(data))
	} else {
		c.st.Orphans++
	}
	c.mu.Unlock()
	return nil
}

// Session reports the connection's open session, nil when idle.
func (c *Connector) Session(conn int) *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[conn]
}

// Stats returns the dialog counters.
func (c *Connector) Stats() ConnectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

func (c *Connector) count(f func(*ConnectorStats)) {
	c.mu.Lock()
	f(&c.st)
	c.mu.Unlock()
}
