package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/storage"
)

// http-mix settings. The rate is one the generator holds on a two-core box
// without its own lag dominating the median; the scenario mix and key space
// are E23's.
const (
	mixRate        = 500.0
	mixScenarios   = "crm,banking,inventory,bookstore"
	mixEntities    = 1_000_000
	mixProbeGap    = 64 // every Nth arrival is a +1 probe for the acked-write audit
	reqTimeout     = 5 * time.Second
	mixSatRate     = 3000.0 // requests per second of the saturation phase's share of the time
	mixWarmup      = 1000   // closed-loop requests set-up sends before anything is timed
	mixRestarts    = 9      // crash restarts recover_s takes the median of
	mixSatSegments = 4      // segments of the saturation phase
)

// mixClient is the load generator's HTTP side: at most nproc connections,
// so the generator cannot hide server queueing behind a deep client pool.
func mixClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Timeout: reqTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		MaxIdleConns:        n,
		IdleConnTimeout:     time.Minute,
	}}
}

// mixStream generates the request stream: round-robin over the scenarios,
// every mixProbeGap-th arrival diverted to the audit probe.
type mixStream struct {
	scenarios []loadgen.Scenario
}

func newMixStream(seed int64) (*mixStream, error) {
	sc, err := loadgen.Scenarios(mixScenarios, mixEntities, uint64(seed))
	if err != nil {
		return nil, err
	}
	return &mixStream{scenarios: sc}, nil
}

func (m *mixStream) request(j uint64) loadgen.Request {
	if j%mixProbeGap == 0 {
		return loadgen.Request{Scenario: loadgen.ProbeScenario, Class: loadgen.Submit,
			Method: http.MethodPost, Path: loadgen.ProbeEntityPath,
			Body: `{"delta":{"balance":1},"describe":"bench probe"}`}
	}
	return m.scenarioRequest(j)
}

// scenarioRequest is arrival j of the scenarios alone, as E23 sends them:
// round-robin, each scenario seeing a contiguous index stream.
func (m *mixStream) scenarioRequest(j uint64) loadgen.Request {
	n := uint64(len(m.scenarios))
	return m.scenarios[j%n].Request(j / n)
}

// mixPhase accumulates one phase's scores.
type mixPhase struct {
	client *http.Client
	base   string
	spans  *tracer        // nil when untraced
	reqID  *atomic.Uint64 // request ids shared across traced phases

	all      *latency    // every request, from its intended send time
	seg      *latency    // the current segment's requests, when set
	byClass  [3]*latency // per class, from the intended send time
	rtt      [3]*latency // per class, from the actual send
	lag      *latency    // dispatch lag: actual send - intended
	done     atomic.Uint64
	reqB     atomic.Uint64    // request body bytes
	respB    atomic.Uint64    // response body bytes
	acked    atomic.Uint64    // body bytes of acked submits
	shed     atomic.Uint64    // 503 answers
	versions atomic.Uint64    // /history versions returned (traced runs)
	queries  atomic.Uint64    // /history answers parsed (traced runs)
	probes   [3]atomic.Uint64 // audit probes: acked, indeterminate, failed
	errs     sync.Map         // distinct error strings, for the log
}

func newMixPhase(client *http.Client, base string, tr *tracer, ids *atomic.Uint64) *mixPhase {
	p := &mixPhase{all: newLatency(), lag: newLatency(), spans: tr, reqID: ids, client: client, base: base}
	for i := range p.byClass {
		p.byClass[i], p.rtt[i] = newLatency(), newLatency()
	}
	return p
}

// issue sends one request and scores it. A request that fails, is refused
// (503) or times out is charged as missing every latency limit.
func (p *mixPhase) issue(req loadgen.Request, intended time.Time) {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, req.Method, p.base+req.Path, body)
	if err != nil {
		p.failed(req, intended, err, false)
		return
	}
	if req.Body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	send := time.Now()
	resp, err := p.client.Do(hr)
	if err != nil {
		p.failed(req, intended, err, !definitelyNotSent(err))
		p.trace(req, intended, send, time.Now())
		return
	}
	var n int64
	var versions int
	if p.spans != nil && req.Class == loadgen.Query && resp.StatusCode == http.StatusOK {
		// A /history answer is a JSON list of "#seq ..." version lines.
		raw, rerr := io.ReadAll(resp.Body)
		n, err = int64(len(raw)), rerr
		versions = bytes.Count(raw, []byte(`"#`))
		p.queries.Add(1)
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	done := time.Now()
	p.trace(req, intended, send, done)
	p.reqB.Add(uint64(len(req.Body)))
	p.respB.Add(uint64(n))
	p.versions.Add(uint64(versions))
	if err != nil {
		p.failed(req, intended, err, true)
		return
	}
	served := resp.StatusCode/100 == 2 || (resp.StatusCode == http.StatusNotFound && req.Class != loadgen.Submit)
	if !served {
		if resp.StatusCode == http.StatusServiceUnavailable {
			p.shed.Add(1)
		}
		p.failed(req, intended, fmt.Errorf("status %d on %s %s", resp.StatusCode, req.Method, req.Path), false)
		return
	}
	p.done.Add(1)
	p.all.ok(done.Sub(intended))
	if p.seg != nil {
		p.seg.ok(done.Sub(intended))
	}
	p.byClass[req.Class].ok(done.Sub(intended))
	p.rtt[req.Class].ok(done.Sub(send))
	p.lag.ok(send.Sub(intended))
	if req.Class == loadgen.Submit {
		p.acked.Add(uint64(len(req.Body)))
		if req.Scenario == loadgen.ProbeScenario {
			p.probes[0].Add(1)
		}
	}
}

// failed scores a request that was not served. indeterminate marks one that
// may have been applied (the connection died after it was sent).
func (p *mixPhase) failed(req loadgen.Request, intended time.Time, err error, indeterminate bool) {
	p.done.Add(1)
	p.all.fail()
	if p.seg != nil {
		p.seg.fail()
	}
	p.byClass[req.Class].fail()
	p.rtt[req.Class].fail()
	if req.Scenario == loadgen.ProbeScenario {
		if indeterminate {
			p.probes[1].Add(1)
		} else {
			p.probes[2].Add(1)
		}
	}
	p.errs.LoadOrStore(err.Error(), true)
}

// trace records the request's spans: the whole request from its intended
// send time, split into the generator's dispatch lag and soupsd's round trip.
func (p *mixPhase) trace(req loadgen.Request, intended, send, done time.Time) {
	if p.spans == nil {
		return
	}
	rid := p.reqID.Add(1)
	root := p.spans.newID()
	p.spans.record(0, root, rid, "loadgen.dispatch", intended, send)
	p.spans.record(0, root, rid, "soupsd."+req.Class.String(), send, done)
	p.spans.record(root, 0, rid, "http.request", intended, done)
}

// definitelyNotSent reports whether err guarantees the request never
// reached the server.
func definitelyNotSent(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// openLoop paces a Poisson schedule at rate for d: each arrival is
// dispatched at its intended time on its own goroutine, and every latency is
// measured from the intended time, so a stall is charged to each request
// it delays.
func openLoop(p *mixPhase, stream *mixStream, first uint64, rate float64, d time.Duration, seed int64) uint64 {
	start := time.Now()
	sched := loadgen.NewSchedule(loadgen.Poisson, rate, start, seed)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	j := first
	for {
		intended := sched.Next()
		if intended.After(deadline) {
			break
		}
		if w := time.Until(intended); w > 0 {
			time.Sleep(w)
		}
		req := stream.request(j)
		j++
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.issue(req, intended)
		}()
	}
	wg.Wait()
	return j
}

// closedLoop runs conns workers that each send their next request as soon
// as the previous one completes, until n requests were sent, and returns
// how long that took.
func closedLoop(p *mixPhase, stream *mixStream, first uint64, conns int, n uint64) time.Duration {
	var next atomic.Uint64
	next.Store(first)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				if j >= first+n {
					return
				}
				p.issue(stream.request(j), time.Now())
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func runHTTPMix(cfg config, tr *tracer) (*outcome, error) {
	// The generator is not the system under test: collecting its garbage
	// less often keeps its pauses out of the latencies it measures.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	out := newOutcome()
	control := &http.Client{Timeout: 10 * time.Second}
	stream, err := newMixStream(cfg.seed)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	out.header["soupsd_flags"] = "-addr ADDR -data-dir DIR (defaults otherwise: units 4, fsync os, group commit off)"
	out.header["rate"] = mixRate
	out.header["connections"] = nproc

	calibD := cfg.seconds * 15 / 100
	openD := cfg.seconds * 55 / 100
	// The saturation phase is a fixed amount of work for its share of the
	// time, so what the server stores does not depend on how fast it ran.
	satN := uint64(mixSatRate * (cfg.seconds - calibD - openD).Seconds())

	// Calibration arm: the same schedule and client against a stub server,
	// so the generator-plus-transport floor is known apart from soupsd.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stubAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	stub, err := children.start(filepath.Join(cfg.work, "stub.log"), self, "-stub", stubAddr)
	if err != nil {
		return nil, err
	}
	defer children.kill(stub)
	if err := waitReady(control, "http://"+stubAddr+"/", 30*time.Second); err != nil {
		return nil, err
	}
	calib := newMixPhase(mixClient(), "http://"+stubAddr, nil, nil)
	selfBefore, err := readProc("self")
	if err != nil {
		return nil, err
	}
	openLoop(calib, stream, 1<<40, mixRate, calibD, cfg.seed^0x5eed)
	selfAfter, err := readProc("self")
	if err != nil {
		return nil, err
	}
	children.kill(stub)

	// Set-up: start soupsd on a fresh data directory until /readyz answers
	// and warm it (connections, caches, heap) with a fixed closed-loop
	// burst from a stream of its own; several times, and the last node
	// serves the run.
	dataDir := filepath.Join(cfg.work, "soupsd-data")
	var setups []float64
	var node *managed
	var warm *mixPhase
	for i := 0; i < cfg.setups; i++ {
		if node != nil {
			node.crash()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		node, err = startSoupsd(cfg, dataDir, control)
		if err != nil {
			return nil, err
		}
		warm = newMixPhase(mixClient(), node.base, nil, nil)
		closedLoop(warm, stream, 1<<41, nproc, mixWarmup)
		setups = append(setups, time.Since(start).Seconds())
		if n := warm.all.failed.Load(); n > 0 {
			return nil, fmt.Errorf("set-up warm-up: %d of %d requests failed", n, mixWarmup)
		}
	}
	defer func() { node.crash() }()
	out.e2e["setup_s"] = median(setups)

	ids := &atomic.Uint64{}
	before, err := node.sample(control)
	if err != nil {
		return nil, err
	}
	open := newMixPhase(mixClient(), node.base, tr, ids)
	genBefore, err := readProc("self")
	if err != nil {
		return nil, err
	}
	next := openLoop(open, stream, 0, mixRate, openD, cfg.seed)
	genAfter, err := readProc("self")
	if err != nil {
		return nil, err
	}
	// The saturation phase runs in segments of equal work, whose figures
	// give the run's own spread.
	sat := newMixPhase(mixClient(), node.base, tr, ids)
	var satWall time.Duration
	for i := uint64(0); i < mixSatSegments; i++ {
		n := satN/mixSatSegments + satN%mixSatSegments*(i/(mixSatSegments-1))
		sat.seg = newLatency()
		d := closedLoop(sat, stream, next, nproc, n)
		next += n
		satWall += d
		out.samples.p50 = append(out.samples.p50, sat.seg.quantileUS(0.5))
		out.samples.rate = append(out.samples.rate, ratio(float64(n), d.Seconds()))
	}
	after, err := node.sample(control)
	if err != nil {
		return nil, err
	}

	// Scores. The end-to-end figures are the saturation phase's: a fixed
	// number of requests over nproc connections in closed loop. The
	// open-loop phase's figures, timed from each request's intended send
	// time, are printed per class below and feed the per-layer metrics;
	// on a shared virtual machine their tails follow the host's timer
	// wake-ups more than the server (see the calibration arm).
	out.e2e["latency_p50_us"] = sat.all.quantileUS(0.5)
	out.e2e["latency_p99_us"] = sat.all.quantileUS(0.99)
	out.e2e["throughput_ops_s"] = ratio(float64(satN), satWall.Seconds())
	out.e2e["peak_rss_mb"] = float64(after.proc.HWMKB) / 1024
	for _, ph := range []*mixPhase{open, sat} {
		out.attempted += ph.all.attempted()
		out.failed += ph.all.failed.Load()
	}
	for c, name := range []string{"submit", "read", "query"} {
		fmt.Printf("http-mix open loop %-6s from intended send: p50 %9.1fus p99 %9.1fus n=%d fail_ratio %.6f\n", name,
			open.byClass[c].quantileUS(0.5), open.byClass[c].quantileUS(0.99),
			open.byClass[c].attempted(), open.byClass[c].failRatio())
	}
	fmt.Printf("http-mix open loop all    from intended send: p50 %9.1fus p99 %9.1fus\n", open.all.quantileUS(0.5), open.all.quantileUS(0.99))
	open.errs.Range(func(k, _ any) bool { fmt.Println("http-mix error:", k); return true })
	sat.errs.Range(func(k, _ any) bool { fmt.Println("http-mix error:", k); return true })

	// Output check: the acked-write audit, before and after a restart.
	var acked, indet uint64
	for _, ph := range []*mixPhase{warm, open, sat} {
		acked += ph.probes[0].Load()
		indet += ph.probes[1].Load()
	}
	bal, err := probeBalance(control, node.base)
	if err != nil {
		return nil, err
	}
	out.check(float64(acked) <= bal && bal <= float64(acked+indet),
		"acked-write audit: balance %.0f outside [%d, %d]", bal, acked, acked+indet)
	// Bring the store to rest before it is sized and restarted: every unit
	// flushed to tables and compaction finished, so neither figure depends
	// on where the run's last flush fell.
	if err := node.rest(control); err != nil {
		return nil, err
	}
	stored, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	// Crash restarts (SIGKILL); the audit must hold after each.
	var recovers []float64
	for i := 0; i < mixRestarts; i++ {
		node.crash()
		start := time.Now()
		restarted, err := startSoupsd(cfg, dataDir, control)
		if err != nil {
			return nil, err
		}
		node = restarted
		recovers = append(recovers, time.Since(start).Seconds())
		after, err := probeBalance(control, node.base)
		if err != nil {
			return nil, err
		}
		out.check(after == bal, "acked-write audit after restart %d: balance %.0f, was %.0f", i+1, after, bal)
	}
	out.e2e["recover_s"] = median(recovers)
	node.crash()
	user := warm.acked.Load() + open.acked.Load() + sat.acked.Load()
	out.e2e["disk_bytes_per_user_byte"] = ratio(float64(stored), float64(user))

	// Per-layer numbers, from outside: client timings, the server's /proc
	// counters and its /metrics counters at the phase boundaries.
	ops := float64(open.done.Load() + sat.done.Load())
	l := out.layer
	l["loadgen.dispatch_lag_p50_us"] = open.lag.quantileUS(0.5)
	l["loadgen.dispatch_lag_p99_us"] = open.lag.quantileUS(0.99)
	l["loadgen.floor_p50_us"] = calib.all.quantileUS(0.5)
	l["loadgen.floor_p99_us"] = calib.all.quantileUS(0.99)
	l["loadgen.cpu_us_per_op"] = ratio(micros(genAfter.CPU-genBefore.CPU), float64(open.done.Load()))
	fmt.Printf("calibration: floor p50 %.1fus p99 %.1fus, generator cpu %.1fus/op\n",
		calib.all.quantileUS(0.5), calib.all.quantileUS(0.99),
		ratio(micros(selfAfter.CPU-selfBefore.CPU), float64(calib.done.Load())))
	for c, name := range []string{"submit", "read", "query"} {
		l["soupsd."+name+"_rtt_p50_us"] = open.rtt[c].quantileUS(0.5)
		l["soupsd."+name+"_rtt_p99_us"] = open.rtt[c].quantileUS(0.99)
	}
	l["soupsd.cpu_us_per_op"] = ratio(micros(after.proc.CPU-before.proc.CPU), ops)
	l["soupsd.req_bytes_per_op"] = ratio(float64(open.reqB.Load()+sat.reqB.Load()), ops)
	l["soupsd.resp_bytes_per_op"] = ratio(float64(open.respB.Load()+sat.respB.Load()), ops)
	l["soupsd.shed_503"] = float64(open.shed.Load() + sat.shed.Load())
	l["soupsd.history_versions_per_query"] = ratio(float64(open.versions.Load()+sat.versions.Load()),
		float64(open.queries.Load()+sat.queries.Load()))
	d := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	l["process.steps_executed"] = d("process.steps_executed")
	l["process.retries"] = d("process.retries")
	l["process.lane_steals"] = d("process.lane_steals")
	l["process.peak_lane_depth"] = after.metrics["process.peak_lane_depth"]
	l["lsdb.flushes"] = d("lsm.flushes")
	l["lsdb.flush_stalls"] = d("lsm.flush_stalls")
	l["lsm.tables"] = after.metrics["lsm.tables"]
	l["lsm.l0_tables"] = after.metrics["lsm.l0_tables"]
	l["lsm.compactions"] = d("lsm.compactions")
	l["lsm.table_bytes"] = after.metrics["lsm.table_bytes"]
	l["storage.write_bytes_per_user_byte"] = ratio(float64(after.proc.WriteBytes-before.proc.WriteBytes),
		float64(open.acked.Load()+sat.acked.Load()))
	l["storage.write_syscalls_per_op"] = ratio(float64(after.proc.Syscw-before.proc.Syscw), ops)

	if tr != nil {
		var writes []write
		for j := uint64(0); len(writes) < 50_000; j++ {
			req := stream.request(j)
			if req.Class != loadgen.Submit {
				continue
			}
			w, err := writeFromRequest(req.Path, req.Body)
			if err != nil {
				return nil, err
			}
			writes = append(writes, w)
		}
		if err := replayLayers(filepath.Join(cfg.work, "replay"), storage.SyncOS, writes, 2*time.Second, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// managed is a running soupsd.
type managed struct {
	cmd  *exec.Cmd
	pid  string
	base string
}

// nodeSample is a reading of soupsd's counters: /proc and /metrics.
type nodeSample struct {
	proc    procSample
	metrics map[string]float64
}

func (m *managed) sample(client *http.Client) (nodeSample, error) {
	var s nodeSample
	var err error
	if s.proc, err = readProc(m.pid); err != nil {
		return s, err
	}
	s.metrics, err = loadgen.ScrapeMetrics(context.Background(), client, m.base)
	return s, err
}

// rest forces a flush on every unit and waits until compaction is done.
func (m *managed) rest(client *http.Client) error {
	resp, err := client.Post(m.base+"/checkpoint", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		mm, err := loadgen.ScrapeMetrics(context.Background(), client, m.base)
		if err != nil {
			return err
		}
		if mm["lsm.compaction_backlog"] == 0 && mm["lsm.flush_pending_bytes"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction backlog %v after 1m", mm["lsm.compaction_backlog"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// crash kills soupsd with SIGKILL: every restart the benchmark makes is a
// crash restart, so recover_s is crash-recovery time and the acked-write
// audit is checked across a crash.
func (m *managed) crash() { children.kill(m.cmd) }

// startSoupsd starts soupsd with default flags plus -data-dir and waits for
// /readyz.
func startSoupsd(cfg config, dataDir string, control *http.Client) (*managed, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd, err := children.start(filepath.Join(cfg.work, "soupsd.log"), cfg.soupsd,
		"-addr", addr, "-data-dir", dataDir)
	if err != nil {
		return nil, err
	}
	m := &managed{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), base: "http://" + addr}
	if err := waitReady(control, m.base+"/readyz", 60*time.Second); err != nil {
		m.crash()
		return nil, err
	}
	return m, nil
}

// probeBalance reads the audit entity's balance.
func probeBalance(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + loadgen.ProbeEntityPath)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("audit read: status %d", resp.StatusCode)
	}
	var st struct {
		Fields map[string]any `json:"fields"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("audit read: %w", err)
	}
	bal, _ := st.Fields["balance"].(float64)
	return bal, nil
}
