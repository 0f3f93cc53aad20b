package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name holding spaces and parentheses must not shift fields.
	line := "4242 (a (b) c) S 1 4242 4242 0 -1 4194304 83 0 0 0 250 50 0 0 20 0 1 0 147744 2703360 306\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want { // (250 + 50) ticks at 100/s
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 x 0 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseIO(t *testing.T) {
	in := "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 4\nread_bytes: 4096\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	got, err := parseIO([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["write_bytes"] != 8192 || got["syscw"] != 4 || got["read_bytes"] != 4096 {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseIO([]byte("rchar: 1\n")); err == nil {
		t.Error("missing write_bytes accepted")
	}
	if _, err := parseIO([]byte("write_bytes: lots\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestParseStatusKB(t *testing.T) {
	in := "Name:\tcat\nVmPeak:\t    2640 kB\nVmHWM:\t    1684 kB\nVmRSS:\t    1600 kB\n"
	got, err := parseStatusKB([]byte(in), "VmHWM")
	if err != nil || got != 1684 {
		t.Fatalf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseStatusKB([]byte(in), "VmSwap"); err == nil {
		t.Error("absent field accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("unexpected unit accepted")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc("self")
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if s.HWMKB == 0 {
		t.Fatalf("VmHWM of a running process read 0: %+v", s)
	}
}

func TestDirBytes(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"a": 10, "sub/b": 32} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := dirBytes(dir); err != nil || got != 42 {
		t.Fatalf("dirBytes = %d, %v; want 42", got, err)
	}
}

func TestParseCPUTicks(t *testing.T) {
	total, steal, err := parseCPUTicks([]byte("cpu  100 1 20 300 4 0 5 70 9 0\ncpu0 1 2 3 4 5 6 7 8 9 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if total != 500 || steal != 70 {
		t.Fatalf("total %d steal %d, want 500 70", total, steal)
	}
	if _, _, err := parseCPUTicks([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("non-cpu line accepted")
	}
}
