package core_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"multics/internal/aim"
	"multics/internal/core"
	"multics/internal/directory"
	"multics/internal/hw"
	"multics/internal/uproc"
)

// Remote-segment request words: a read is opRead, offset, count, then
// the pathname one character per word; every reply opens with opReply
// and a status, 1 for a refusal.
const (
	opRead  = 0
	opReply = 1
)

// remoteServer boots a kernel whose serving process can read the file
// lib>A, holding known words, and the file A at the root.
func remoteServer(t testing.TB) (*core.Kernel, *hw.Processor, *uproc.Process) {
	t.Helper()
	k, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess(core.NetPrincipal, aim.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.CPUs[0]
	k.Attach(cpu, p)
	public := directory.Public(hw.Read | hw.Write)
	if _, err := k.CreateDir(cpu, p, nil, "lib", public, aim.Bottom); err != nil {
		t.Fatal(err)
	}
	for _, dir := range [][]string{{"lib"}, nil} {
		if _, err := k.CreateFile(cpu, p, dir, "A", public, aim.Bottom); err != nil {
			t.Fatal(err)
		}
		segno, err := k.OpenPath(cpu, p, append(dir, "A"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := k.Write(cpu, p, segno, i, hw.Word(0o100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return k, cpu, p
}

// readRequest builds a read request for n words at off of path, one
// character per word, components joined by '>'.
func readRequest(off, n int, path ...string) []hw.Word {
	req := []hw.Word{opRead, hw.Word(off), hw.Word(n)}
	for _, c := range strings.Join(path, ">") {
		req = append(req, hw.Word(c))
	}
	return req
}

// TestRemotePathRefusesNonCharacters: a path word that is not a
// character is refused, not truncated to one. Truncated, 0o501 would
// read as 'A' and 0o476 as the component separator, so these requests
// would reach lib>A and A.
func TestRemotePathRefusesNonCharacters(t *testing.T) {
	k, cpu, p := remoteServer(t)
	if reply, err := k.RemoteSegServe(cpu, p, readRequest(0, 2, "lib", "A"), nil); err != nil || len(reply) != 4 {
		t.Fatalf("plain read of lib>A = %v, %v", reply, err)
	}
	for _, req := range [][]hw.Word{
		append(readRequest(0, 2, "lib"), 0o476, 0o501),
		{opRead, 0, 2, 0o501},
		append(readRequest(0, 2, "lib", "A"), 1<<35),
	} {
		reply, err := k.RemoteSegServe(cpu, p, req, nil)
		if err == nil {
			t.Errorf("request %o served: %v", req, reply)
			continue
		}
		if len(reply) != 2 || reply[0] != opReply || reply[1] != 1 {
			t.Errorf("request %o refused with reply %v, want [%d 1]", req, reply, opReply)
		}
	}
}

// FuzzRemoteSegServe sends arbitrary request words, eight bytes each,
// little-endian, to the remote-segment gate of a booted kernel: the
// one entry by which another node's request touches the hierarchy.
// The gate must never panic; a refusal is exactly (opReply, 1), a
// success exactly 2+n words under (opReply, 0); and the kernel must
// audit clean afterwards.
func FuzzRemoteSegServe(f *testing.F) {
	encode := func(words []hw.Word) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(w))
		}
		return b
	}
	for _, seed := range [][]hw.Word{
		readRequest(1, 2, "lib", "A"),                  // a valid read
		{opRead, 0},                                    // a short frame
		{7, 0, 1, 'A'},                                 // a bad opcode
		{opRead, 0, hw.Word(1 << 63), 'A'},             // n < 0
		readRequest(0, 16*hw.PageWords+1, "A"),         // n over the limit
		append(readRequest(0, 1, "lib"), 0o476, 0o501), // a high word in the path
		readRequest(0, 1, "lib", "", "A"),              // an empty component
	} {
		f.Add(encode(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		req := make([]hw.Word, len(raw)/8)
		for i := range req {
			req[i] = hw.Word(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		k, cpu, p := remoteServer(t)
		reply, err := k.RemoteSegServe(cpu, p, req, nil)
		if err != nil {
			if len(reply) != 2 || reply[0] != opReply || reply[1] != 1 {
				t.Fatalf("refusal (%v) replied %v, want [%d 1]", err, reply, opReply)
			}
		} else if n := int(req[2]); len(reply) != 2+n || reply[0] != opReply || reply[1] != 0 {
			t.Fatalf("success replied %d words under %v, want %d under [%d 0]", len(reply), reply[:min(2, len(reply))], 2+n, opReply)
		}
		if err := audited(k); err != nil {
			t.Fatal(err)
		}
	})
}
