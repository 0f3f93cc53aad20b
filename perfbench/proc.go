package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// procSet tracks the child processes the benchmark started, so each is
// stopped and waited for on every exit path.
type procSet struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]bool
}

func newProcSet() *procSet { return &procSet{procs: map[*exec.Cmd]bool{}} }

// start launches a child with its output appended to logPath.
func (s *procSet) start(logPath, bin string, args ...string) (*exec.Cmd, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s.mu.Lock()
	s.procs[cmd] = true
	s.mu.Unlock()
	return cmd, nil
}

// kill kills a child with SIGKILL and waits for it.
func (s *procSet) kill(cmd *exec.Cmd) {
	s.mu.Lock()
	live := s.procs[cmd]
	delete(s.procs, cmd)
	s.mu.Unlock()
	if live {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}

// killAll kills and reaps every child still running.
func (s *procSet) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for cmd := range s.procs {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		delete(s.procs, cmd)
	}
}

// freeAddr returns a loopback address with a currently unused port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return "127.0.0.1:" + strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// waitReady polls url until it answers 200. The poll interval is short
// because recover_s and setup_s are read off it.
func waitReady(client *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error %v)", url, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveStub is the calibration arm's server: it answers every request with
// a small fixed JSON body, so the generator plus transport floor can be
// measured apart from soupsd. The benchmark kills it when done.
func serveStub(addr string) {
	body := []byte(`{"key":"stub","fields":{}}` + "\n")
	err := http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	fmt.Fprintln(os.Stderr, "stub:", err)
	os.Exit(1)
}
