// Package answering implements the Multics answering service: the
// programs that regulate attempts to log in, including authenticating
// passwords, creating the user's process, and managing system
// accounting.
//
// The 1974 answering service was a 10,000-line trusted process, all
// of which had to be counted in the security kernel. Montgomery's
// study showed that fewer than 1,000 of those lines need be trusted:
// the Split configuration keeps a small kernel part (password
// verification and process creation with an authenticated principal)
// and moves the dialog and accounting bookkeeping to an ordinary user
// process, the two halves exchanging messages. The paper reports the
// split service ran about 3% slower in its preliminary
// implementation; the cost model reproduces that shape (the message
// passing is the unavoidable extra).
package answering

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"multics/internal/aim"
	"multics/internal/hw"
)

// ModuleName is the answering service's account in the cycle ledger.
const ModuleName = "answering-service"

// Mode selects the configuration.
type Mode int

const (
	// Monolithic is the 1974 organization: everything trusted.
	Monolithic Mode = iota
	// Split is Montgomery's organization: a small trusted part plus
	// an untrusted dialog-and-accounting part.
	Split
)

func (m Mode) String() string {
	if m == Monolithic {
		return "monolithic"
	}
	return "split"
}

// Algorithm-body costs. The total login work is the same in both
// configurations — it is the same job, moved — but the split pays
// message passing between its halves.
const (
	bodyLoginTotal   = 3500 // full login processing (dialog, auth, setup, accounting)
	bodyTrustedShare = 500  // the part that must stay in the kernel
	splitMessages    = 2    // request and reply between the halves
)

// Source-line figures from Montgomery's study, used by the census.
const (
	// MonolithicLines is the 1974 answering service.
	MonolithicLines = 10000
	// SplitTrustedLines is the part that must remain in the kernel
	// ("fewer than 1,000").
	SplitTrustedLines = 1000
)

// KernelLines reports the trusted source lines of a configuration.
func KernelLines(m Mode) int {
	if m == Monolithic {
		return MonolithicLines
	}
	return SplitTrustedLines
}

// Errors of the login interface. Bad user and bad password are the
// same answer.
var (
	ErrBadCredentials = errors.New("answering: incorrect login")
	ErrClearance      = errors.New("answering: requested authorization exceeds clearance")
	ErrAlreadyOn      = errors.New("answering: user already registered")
)

// CreateProcess is the kernel service the answering service invokes
// once a principal is authenticated.
type CreateProcess func(principal string, label aim.Label) (any, error)

type user struct {
	hash      uint64
	clearance aim.Label
}

// A SessionRecord is one accounting record.
type SessionRecord struct {
	Principal string
	Label     aim.Label
	// LoginCycles is the simulated cost of the login itself.
	LoginCycles int64
	// CPUUsed is filled at logout.
	CPUUsed int64
	Open    bool
}

// A Session is a logged-in user. The handle Login returns is valid
// until its Logout returns: Logout puts it on the service's free list
// and a later Login reuses it, as a destroyed process's record is
// reused. A caller that needs the session's Process after logging out
// reads it first.
type Session struct {
	Principal string
	Label     aim.Label
	Process   any
	record    int
}

// A Service is an answering service instance.
type Service struct {
	Mode   Mode
	meter  *hw.CostMeter
	create CreateProcess

	mu    sync.Mutex
	users map[string]user
	// records is the accounting log, one entry per login in login
	// order, held in chunks of recordChunk entries so a login never
	// re-copies it; nrec counts the entries. An entry names its
	// principal and label by their index in accounts, so the log grows
	// by a fixed 24 bytes per login.
	records  []*[recordChunk]record
	nrec     int
	accounts []account
	byAcct   map[account]int32
	// free holds the handles of logged-out sessions for Login to
	// reuse; it grows to the peak number of sessions open at once.
	free []*Session
	// Salt for password hashing; fixed per system.
	salt uint64
}

// An account is a (principal, label) pair sessions are logged under.
type account struct {
	principal string
	label     aim.Label
}

// recordChunk is the number of accounting records per chunk of the
// log.
const recordChunk = 1024

// A record is one accounting log entry; Records expands it into a
// SessionRecord.
type record struct {
	acct        int32
	open        bool
	loginCycles int64
	cpuUsed     int64
}

// New returns an answering service in the given configuration.
func New(mode Mode, meter *hw.CostMeter, create CreateProcess) *Service {
	return &Service{
		Mode:   mode,
		meter:  meter,
		create: create,
		users:  make(map[string]user),
		byAcct: make(map[account]int32),
		salt:   0x6180a13,
	}
}

func hashPassword(salt uint64, principal, password string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(principal))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(password))
	return h.Sum64()
}

// StormPrincipal names the i-th synthetic storm user.
func StormPrincipal(i int) string { return fmt.Sprintf("u%05d.storm", i) }

// Register adds a user with a password and a clearance: the highest
// label at which the user may log in.
func (s *Service) Register(principal, password string, clearance aim.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[principal]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyOn, principal)
	}
	s.users[principal] = user{hash: hashPassword(s.salt, principal, password), clearance: clearance}
	return nil
}

// Login authenticates and creates a process at the requested label.
// In the split configuration the work flows through both halves with
// message passing between them.
func (s *Service) Login(principal, password string, label aim.Label) (*Session, error) {
	start := s.meter.Snapshot()
	switch s.Mode {
	case Monolithic:
		s.meter.AddBody(ModuleName, bodyLoginTotal, hw.PLI)
	case Split:
		// The untrusted half runs the dialog, then messages the
		// trusted half, which authenticates and replies.
		s.meter.AddBody(ModuleName, bodyLoginTotal-bodyTrustedShare, hw.PLI)
		s.meter.Add(ModuleName, splitMessages*hw.CycIPC)
		s.meter.AddBody(ModuleName, bodyTrustedShare, hw.PLI)
	}
	s.mu.Lock()
	u, ok := s.users[principal]
	s.mu.Unlock()
	if !ok || u.hash != hashPassword(s.salt, principal, password) {
		// One answer for both failures.
		return nil, ErrBadCredentials
	}
	if !u.clearance.Dominates(label) {
		return nil, fmt.Errorf("%w: %v above %v", ErrClearance, label, u.clearance)
	}
	proc, err := s.create(principal, label)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := account{principal, label}
	id, ok := s.byAcct[a]
	if !ok {
		id = int32(len(s.accounts))
		s.accounts = append(s.accounts, a)
		s.byAcct[a] = id
	}
	if s.nrec%recordChunk == 0 {
		s.records = append(s.records, new([recordChunk]record))
	}
	n := s.nrec
	s.nrec++
	*s.entry(n) = record{acct: id, open: true, loginCycles: s.meter.Since(start)}
	var sess *Session
	if k := len(s.free); k > 0 {
		sess, s.free = s.free[k-1], s.free[:k-1]
	} else {
		sess = new(Session)
	}
	*sess = Session{Principal: principal, Label: label, Process: proc, record: n}
	return sess, nil
}

// entry returns accounting record i, which must exist. Caller holds
// s.mu.
func (s *Service) entry(i int) *record { return &s.records[i/recordChunk][i%recordChunk] }

// Logout closes a session, recording the CPU it consumed, and puts
// its handle on the free list: it names no session once Logout
// returns.
func (s *Service) Logout(sess *Session, cpuUsed int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess == nil || sess.record < 0 || sess.record >= s.nrec || !s.entry(sess.record).open {
		return errors.New("answering: no such open session")
	}
	r := s.entry(sess.record)
	r.cpuUsed = cpuUsed
	r.open = false
	*sess = Session{record: -1}
	s.free = append(s.free, sess)
	return nil
}

// Records returns a copy of the accounting records.
func (s *Service) Records() []SessionRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionRecord, s.nrec)
	for i := range out {
		r := s.entry(i)
		a := s.accounts[r.acct]
		out[i] = SessionRecord{
			Principal: a.principal, Label: a.label,
			LoginCycles: r.loginCycles, CPUUsed: r.cpuUsed, Open: r.open,
		}
	}
	return out
}
