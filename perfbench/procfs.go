package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture the benchmark runs on.
const clockTicks = 100

// procSample is one reading of a process's OS counters.
type procSample struct {
	CPU        time.Duration // user + system time
	WriteBytes uint64        // bytes the process caused to be sent to storage
	Syscw      uint64        // write-class system calls
	HWMKB      uint64        // peak resident set size (VmHWM), KiB
}

// sub returns the counter deltas s - before (HWM is kept as read).
func (s procSample) sub(before procSample) procSample {
	return procSample{
		CPU:        s.CPU - before.CPU,
		WriteBytes: s.WriteBytes - before.WriteBytes,
		Syscw:      s.Syscw - before.Syscw,
		HWMKB:      s.HWMKB,
	}
}

// readProc samples /proc/<pid>/{stat,io,status}; pid "self" reads the
// benchmark's own process.
func readProc(pid string) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	if s.CPU, err = parseStatCPU(stat); err != nil {
		return s, err
	}
	io, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return s, err
	}
	ioc, err := parseIO(io)
	if err != nil {
		return s, err
	}
	s.WriteBytes, s.Syscw = ioc["write_bytes"], ioc["syscw"]
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return s, err
	}
	s.HWMKB, err = parseStatusKB(status, "VmHWM")
	return s, err
}

// parseStatCPU returns utime+stime from a /proc/<pid>/stat line. The command
// name (field 2) is parenthesised and may itself hold spaces or parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are fields
	// 14 and 15.
	f := strings.Fields(string(b[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseIO parses /proc/<pid>/io "name: value" lines.
func parseIO(b []byte) (map[string]uint64, error) {
	out := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(value), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("proc io %s: %w", name, err)
		}
		out[strings.TrimSpace(name)] = v
	}
	if _, ok := out["write_bytes"]; !ok {
		return nil, fmt.Errorf("proc io: no write_bytes line")
	}
	return out, sc.Err()
}

// parseStatusKB returns the kB value of one /proc/<pid>/status field, e.g.
// "VmHWM:	  123456 kB".
func parseStatusKB(b []byte, field string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(value)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", field, value)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// dirBytes sums the sizes of the regular files under dir: the bytes the
// store keeps on disk.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// cpuTicks reads the machine-wide busy and stolen CPU ticks from /proc/stat.
// Steal is time the hypervisor ran someone else on this machine's CPUs.
func cpuTicks() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseCPUTicks(b)
}

// parseCPUTicks parses the aggregate "cpu" line of /proc/stat.
func parseCPUTicks(b []byte) (total, steal uint64, err error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected cpu line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu: %w", err)
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}
