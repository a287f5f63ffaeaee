package core

import (
	"testing"

	"multics/internal/aim"
	"multics/internal/answering"
	"multics/internal/directory"
	"multics/internal/fnp"
	"multics/internal/hw"
	"multics/internal/netmux"
	"multics/internal/uproc"
)

// attachNode boots a kernel and wires a small network plane to it.
func attachNode(t *testing.T, conns int) *NetNode {
	t.Helper()
	k := boot(t, nil)
	n, err := k.AttachFNP(conns, 4)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRemoteSegmentRoundTrip moves data between two booted kernels
// over the inter-node channel: a read must return byte-identical
// contents, and a copy must land them byte-identically in a local
// segment.
func TestRemoteSegmentRoundTrip(t *testing.T) {
	nodeA := attachNode(t, 8)
	nodeB := attachNode(t, 8)
	link, err := Connect(nodeA, nodeB)
	if err != nil {
		t.Fatal(err)
	}

	// A user on node B publishes a file.
	kb := nodeB.K
	cpuB, bob := user(t, kb, "bob.dev", aim.Bottom)
	if _, err := kb.CreateFile(cpuB, bob, nil, "shared", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segB, err := kb.OpenPath(cpuB, bob, []string{"shared"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	want := make([]hw.Word, n)
	for i := range want {
		want[i] = hw.Word(0o1000*i + 7)
		if err := kb.Write(cpuB, bob, segB, i, want[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Remote read from node A: byte-identical.
	got, err := link.RemoteRead([]string{"shared"}, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remote read word %d = %o, want %o", i, got[i], want[i])
		}
	}

	// Remote copy into a segment on node A: byte-identical after the
	// local write path (faults, quota, paging) has run.
	ka := nodeA.K
	cpuA, alice := user(t, ka, "alice.sys", aim.Bottom)
	if _, err := ka.CreateFile(cpuA, alice, nil, "mirror", nil, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segA, err := ka.OpenPath(cpuA, alice, []string{"mirror"})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := link.RemoteCopy(cpuA, alice, []string{"shared"}, 0, n, segA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != n {
		t.Fatalf("copied %d words, want %d", moved, n)
	}
	for i := range want {
		w, err := ka.Read(cpuA, alice, segA, i)
		if err != nil || w != want[i] {
			t.Fatalf("copied word %d = %o (%v), want %o", i, w, err, want[i])
		}
	}

	// Both internode connection tables balanced their credits.
	for _, node := range []*NetNode{nodeA, nodeB} {
		st := node.Inter.Stats()
		if st.Frames != st.Delivered || st.Frames != st.Credits || st.Drops != 0 {
			t.Errorf("internode table unbalanced: %+v", st)
		}
	}
}

// TestRemoteReadHonorsACL checks the remote-segment gate's security
// story: remote traffic runs as the serving principal, and a file
// that principal cannot read stays unreadable from the other node.
func TestRemoteReadHonorsACL(t *testing.T) {
	nodeA := attachNode(t, 4)
	nodeB := attachNode(t, 4)
	link, err := Connect(nodeA, nodeB)
	if err != nil {
		t.Fatal(err)
	}
	kb := nodeB.K
	cpuB, bob := user(t, kb, "bob.dev", aim.Bottom)
	if _, err := kb.CreateFile(cpuB, bob, nil, "private", directory.ACL{
		{Pattern: "bob.dev", Mode: hw.Read | hw.Write},
	}, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segB, err := kb.OpenPath(cpuB, bob, []string{"private"})
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.Write(cpuB, bob, segB, 0, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := link.RemoteRead([]string{"private"}, 0, 1); err == nil {
		t.Fatal("remote read of an ACL-protected file succeeded")
	}
	if _, err := link.RemoteRead([]string{"no-such-file"}, 0, 1); err == nil {
		t.Fatal("remote read of a missing file succeeded")
	}
}

// TestInternodeProtocolErrors drives malformed frames at the
// internode network: they are rejected, counted, and never reach the
// connection tables.
func TestInternodeProtocolErrors(t *testing.T) {
	nodeA := attachNode(t, 4)
	nodeB := attachNode(t, 4)
	if _, err := Connect(nodeA, nodeB); err != nil {
		t.Fatal(err)
	}
	if _, err := Connect(nodeA, nodeA); err == nil {
		t.Fatal("self-link accepted")
	}
	// Unknown opcode and empty frame.
	if err := nodeB.Mux.Deliver(nil, "internode", netmux.Frame{Channel: 0, Payload: []hw.Word{99}}); err == nil {
		t.Fatal("unknown internode op accepted")
	}
	if err := nodeB.Mux.Deliver(nil, "internode", netmux.Frame{Channel: 0}); err == nil {
		t.Fatal("empty internode frame accepted")
	}
	if st := nodeB.Mux.MuxStats(); st.ProtocolErrors != 2 {
		t.Fatalf("ProtocolErrors = %d, want 2", st.ProtocolErrors)
	}
	if st := nodeB.Inter.Stats(); st.Frames != 0 {
		t.Fatalf("rejected frames reached the connection table: %+v", st)
	}
	// A well-formed but semantically broken request errors through
	// the gate without wedging the link.
	link2, err := Connect(nodeB, nodeA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link2.RemoteRead(nil, 0, -1); err == nil {
		t.Fatal("negative-length remote read succeeded")
	}
}

// TestConnectionDrivenLogin drives the answering service purely
// through the connection plane: login, IO and logout arrive as
// terminal frames through the mux and the sharded connection table,
// and sessions open and close with no direct Login/Logout calls.
func TestConnectionDrivenLogin(t *testing.T) {
	node := attachNode(t, 16)
	k := node.K
	svc := answering.New(answering.Split, k.Meter, func(principal string, label aim.Label) (any, error) {
		return k.CreateProcess(principal, label)
	})
	conn := answering.NewConnector(svc, func(proc any) error {
		return k.Procs.Destroy(proc.(*uproc.Process))
	})
	for i := 0; i < 8; i++ {
		if err := svc.Register(answering.StormPrincipal(i), "storm-pw", aim.Top); err != nil {
			t.Fatal(err)
		}
	}

	send := func(term int, line string) {
		payload := append(answering.EncodeLine(line), 0o777)
		if err := node.Mux.Deliver(nil, "front-end", netmux.Frame{Channel: term, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() {
		for sh := 0; sh < node.Terminals.Shards(); sh++ {
			node.Terminals.Drain(sh, func(d fnp.Delivery) {
				// Dialog errors are outcomes, not delivery failures.
				_ = conn.HandleFrame(d.Conn, d.Data)
			})
		}
	}

	for i := 0; i < 8; i++ {
		send(i, "login "+answering.StormPrincipal(i)+" storm-pw")
	}
	drain()
	for i := 0; i < 8; i++ {
		if conn.Session(i) == nil {
			t.Fatalf("terminal %d has no session after login line", i)
		}
		send(i, "print working_dir")
	}
	send(12, "stray line") // no session: orphan
	drain()
	for i := 0; i < 8; i++ {
		send(i, "logout")
	}
	drain()
	st := conn.Stats()
	if st.Logins != 8 || st.Logouts != 8 {
		t.Fatalf("logins/logouts = %d/%d, want 8/8", st.Logins, st.Logouts)
	}
	if st.IOFrames != 8 || st.Orphans != 1 {
		t.Fatalf("io/orphans = %d/%d, want 8/1", st.IOFrames, st.Orphans)
	}
	for _, rec := range svc.Records() {
		if rec.Open {
			t.Fatalf("session %s still open after logout line", rec.Principal)
		}
	}
	if st := node.Terminals.Stats(); st.Frames != st.Delivered || st.Drops != 0 {
		t.Fatalf("connection plane unbalanced: %+v", st)
	}
}

// TestRemoteReadAllocatesLittle pins the internode link's buffers: a
// warm remote read encodes its request into the link's request buffer
// and the serving gate writes its reply into the link's reply buffer,
// so a 64-word read allocates only the serving side's decoded
// pathname (its string and its one-element slice). A request and a
// reply built fresh per read read 7 allocations here, the reply alone
// 576 bytes.
func TestRemoteReadAllocatesLittle(t *testing.T) {
	nodeA := attachNode(t, 8)
	nodeB := attachNode(t, 8)
	link, err := Connect(nodeA, nodeB)
	if err != nil {
		t.Fatal(err)
	}
	kb := nodeB.K
	cpuB, bob := user(t, kb, "bob.dev", aim.Bottom)
	if _, err := kb.CreateFile(cpuB, bob, nil, "shared", directory.Public(hw.Read|hw.Write), aim.Bottom); err != nil {
		t.Fatal(err)
	}
	segB, err := kb.OpenPath(cpuB, bob, []string{"shared"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := kb.Write(cpuB, bob, segB, i, hw.Word(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	path := []string{"shared"}
	read := func() {
		got, err := link.RemoteRead(path, 0, n)
		if err != nil || len(got) != n || got[n-1] != n {
			t.Fatalf("remote read = %v, %v", got, err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs > 2 {
		t.Errorf("a remote read allocates %.1f times, want at most 2", allocs)
	}
}
