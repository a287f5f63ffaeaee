package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// gzipMagic opens every profile runtime/pprof writes: gzipped protocol
// buffers.
var gzipMagic = []byte{0x1f, 0x8b}

// sink keeps the profiled work's allocations live for the heap profile.
var sink [][]byte

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpuPath, memPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, gzipMagic) {
			t.Errorf("%s: %d bytes, want a gzipped profile", filepath.Base(path), len(b))
		}
	}
}

func TestStartWithNoPathsWritesNothing(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("Start with no paths left %v in the working directory (%v)", entries, err)
	}
}

func TestStartCPUPathInMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "cpu.out")
	if stop, err := Start(path, ""); err == nil {
		stop()
		t.Fatalf("Start(%q) succeeded", path)
	}
}
