// Command perfbench is the repository's benchmark. It runs one workload per
// invocation, measures it from outside the program — timing the calls it
// makes into soupsd's HTTP surface and into the kernel's public functions,
// reading the public counters at phase boundaries and the OS counters under
// /proc — checks the outputs, and prints a JSON result as its last line:
//
//	perfbench --workload http-mix --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	http-mix       a managed soupsd driven over loopback by the four-scenario mix
//	durable-write  an in-process durable kernel under a write-only mix, in fixed-size rounds
//	cold-read      a reopened kernel reading every key of a 100k-entity store once
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// per-layer metrics, taken from a traced half of the run (spans around every
// call into a layer plus a replay pass that drives lsdb, storage and lsm
// directly) and compared against an untraced half for the tracing overhead.
// perfbench/run.sh builds the benchmark and soupsd from source and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. Moves, for a per-layer metric, is the
// end-to-end metric and workload it is expected to move.
type metricDef struct {
	Name, Unit, Moves string
}

// endToEnd are the metrics a user of the system sees; every workload reports
// every one (BENCHMARK.json gives their bounds).
var endToEnd = []metricDef{
	{Name: "latency_p50_us", Unit: "us"},
	{Name: "latency_p99_us", Unit: "us"},
	{Name: "throughput_ops_s", Unit: "ops/s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "recover_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio"},
}

const (
	httpGen   = "open-loop latency from intended send on http-mix (printed per class)"
	httpP50   = "latency_p50_us, latency_p99_us on http-mix"
	httpTput  = "throughput_ops_s on http-mix"
	dwSubmit  = "latency_p50_us, latency_p99_us on durable-write"
	dwTput    = "throughput_ops_s on durable-write"
	dwDisk    = "disk_bytes_per_user_byte on durable-write"
	crRead    = "latency_p50_us, latency_p99_us on cold-read"
	crRecover = "recover_s on cold-read"
)

// perLayer are the per-layer metrics of a traced run. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"loadgen.dispatch_lag_p50_us", "us", httpGen},
	{"loadgen.dispatch_lag_p99_us", "us", httpGen},
	{"loadgen.floor_p50_us", "us", httpGen},
	{"loadgen.floor_p99_us", "us", httpGen},
	{"loadgen.cpu_us_per_op", "us", httpGen},
	{"soupsd.submit_rtt_p50_us", "us", httpP50},
	{"soupsd.submit_rtt_p99_us", "us", httpP50},
	{"soupsd.read_rtt_p50_us", "us", httpP50},
	{"soupsd.read_rtt_p99_us", "us", httpP50},
	{"soupsd.query_rtt_p50_us", "us", httpP50},
	{"soupsd.query_rtt_p99_us", "us", httpP50},
	{"soupsd.cpu_us_per_op", "us", httpTput},
	{"soupsd.req_bytes_per_op", "B", httpTput},
	{"soupsd.resp_bytes_per_op", "B", httpTput},
	{"soupsd.shed_503", "count", httpTput},
	{"soupsd.history_versions_per_query", "count", httpP50},
	{"core.update_p50_us", "us", dwSubmit},
	{"core.update_p99_us", "us", dwSubmit},
	{"core.transact_multi_p50_us", "us", dwSubmit},
	{"core.transact_multi_p99_us", "us", dwSubmit},
	{"core.tentative_p50_us", "us", dwSubmit},
	{"core.tentative_p99_us", "us", dwSubmit},
	{"txn.conflicts", "count", dwSubmit},
	{"txn.aborts", "count", dwSubmit},
	{"txn.lock_timeouts", "count", dwSubmit},
	{"process.steps_executed", "count", dwTput},
	{"process.retries", "count", dwTput},
	{"process.lane_steals", "count", dwTput},
	{"process.peak_lane_depth", "count", dwTput},
	{"process.drain_ms", "ms", dwTput},
	{"apology.promises_made", "count", dwTput},
	{"apology.promises_kept", "count", dwTput},
	{"apology.promises_broken", "count", dwTput},
	{"apology.promises_refused", "count", dwTput},
	{"lsdb.append_p50_us", "us", dwSubmit},
	{"lsdb.append_p99_us", "us", dwSubmit},
	{"lsdb.append_self_us_per_op", "us", dwSubmit},
	{"lsdb.flushes", "count", dwSubmit},
	{"lsdb.flush_stalls", "count", dwSubmit},
	{"lsdb.sync_ms", "ms", dwSubmit},
	{"lsdb.current_cold_p50_us", "us", crRead},
	{"lsdb.current_cold_self_us_per_op", "us", crRead},
	{"lsdb.cold_reads_per_read", "ratio", crRead},
	{"storage.append_batch_p50_us", "us", dwTput},
	{"storage.append_batch_p99_us", "us", dwTput},
	{"storage.write_bytes_per_user_byte", "ratio", dwDisk},
	{"storage.write_syscalls_per_op", "ratio", dwTput},
	{"storage.replay_ms", "ms", crRecover},
	{"lsm.lookup_p50_us", "us", crRead},
	{"lsm.lookup_p99_us", "us", crRead},
	{"lsm.tables_read_per_lookup", "ratio", crRead},
	{"lsm.bloom_false_positive_ratio", "ratio", crRead},
	{"lsm.bloom_checks", "count", crRead},
	{"lsm.tables", "count", "latency_p99_us on durable-write; disk_bytes_per_user_byte"},
	{"lsm.l0_tables", "count", "latency_p99_us on durable-write; disk_bytes_per_user_byte"},
	{"lsm.compactions", "count", "latency_p99_us on durable-write; disk_bytes_per_user_byte"},
	{"lsm.table_bytes", "B", "latency_p99_us on durable-write; disk_bytes_per_user_byte"},
	{"trace.spans", "count", "tracing overhead"},
	{"trace.overhead_latency_p50_us", "us", "tracing overhead"},
	{"trace.overhead_throughput_ratio", "ratio", "tracing overhead"},
	{"trace.noise_latency_p50_us", "us", "tracing overhead (the untraced half's own spread)"},
	{"trace.noise_throughput_ratio", "ratio", "tracing overhead (the untraced half's own spread)"},
}

// setupRepeats is how many times an untraced run sets up (and a durable
// store is reopened) to report the median.
const setupRepeats = 3

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	soupsd   string
	work     string // scratch directory for data dirs, spans and logs
	setups   int    // times set-up runs; setup_s is their median
}

// outcome is what a workload measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted uint64
	failed    uint64
	problems  []string // failed output checks; empty means correct
	header    map[string]any
	samples   samples
}

// samples are a run's per-round values of latency_p50_us and
// throughput_ops_s (rounds, passes or saturation segments): a traced run
// sets the tracing overhead against their spread.
type samples struct {
	p50, rate []float64
}

// errCheckFailed is the error of a run whose output checks failed; its
// result line is printed first, with "correct": false.
var errCheckFailed = fmt.Errorf("output check failed")

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, header: map[string]any{}}
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloadFunc runs one workload for cfg.seconds; tr is nil when untraced.
type workloadFunc func(cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"http-mix":      runHTTPMix,
	"durable-write": runDurableWrite,
	"cold-read":     runColdRead,
}

func main() {
	var (
		cfg      config
		secs     float64
		traceArg int
		stub     string
		populate string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: http-mix, durable-write or cold-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&secs, "seconds", 20, "measured seconds")
	flag.IntVar(&traceArg, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.soupsd, "soupsd", "", "soupsd binary (http-mix)")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for data, spans and logs")
	flag.StringVar(&stub, "stub", "", "internal: serve the calibration stub on this address")
	flag.StringVar(&populate, "populate", "", "internal: write the cold-read store into this directory and exit")
	flag.Parse()
	if stub != "" {
		serveStub(stub)
		return
	}
	if populate != "" {
		if err := populateColdRead(populate, cfg.seed, crEntities); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench populate:", err)
			os.Exit(1)
		}
		return
	}
	cfg.seconds = time.Duration(secs * float64(time.Second))
	if err := run(cfg, traceArg == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, traced bool) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < time.Second {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if cfg.workload == "http-mix" && cfg.soupsd == "" {
		return fmt.Errorf("http-mix needs -soupsd")
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	cfg.work = work
	cfg.setups = setupRepeats
	stopOnSignal(work)
	defer children.killAll()

	header := runHeader(cfg, traced)
	total0, steal0, statErr := cpuTicks()
	var out *outcome
	if !traced {
		out, err = fn(cfg, nil)
	} else {
		out, err = runTraced(cfg, fn)
	}
	if err != nil {
		// The work directory stays for its logs.
		return fmt.Errorf("%w (logs in %s)", err, work)
	}
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if total1, steal1, err := cpuTicks(); err == nil && statErr == nil {
		header["steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	for k, v := range out.header {
		header[k] = v
	}
	hj, _ := json.Marshal(map[string]any{"header": header})
	fmt.Println(string(hj))
	return emit(os.Stdout, out, traced)
}

// runTraced measures an untraced half and a traced half of the run, reports
// the traced half's per-layer metrics and the difference between the two
// halves' end-to-end numbers as the tracing overhead, and writes the spans.
func runTraced(cfg config, fn workloadFunc) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	half.setups = 1 // a traced run reports no setup_s
	plain, err := fn(half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out, err := fn(half, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.problems = append(out.problems, plain.problems...)
	spans := tr.snapshot()
	out.layer["trace.spans"] = float64(len(spans))
	// The halves are separate runs, each with its own set-up, so their
	// difference carries the run-to-run noise as well; the spread of the
	// untraced half's own rounds is reported beside it.
	l := out.layer
	l["trace.overhead_latency_p50_us"] = out.e2e["latency_p50_us"] - plain.e2e["latency_p50_us"]
	l["trace.overhead_throughput_ratio"] = 1 - ratio(out.e2e["throughput_ops_s"], plain.e2e["throughput_ops_s"])
	l["trace.noise_latency_p50_us"] = valueRange(plain.samples.p50)
	l["trace.noise_throughput_ratio"] = ratio(valueRange(plain.samples.rate), median(plain.samples.rate))
	for _, c := range []struct {
		name, unit      string
		overhead, noise float64
	}{
		{"latency_p50", "us", l["trace.overhead_latency_p50_us"], l["trace.noise_latency_p50_us"]},
		{"throughput", "", l["trace.overhead_throughput_ratio"], l["trace.noise_throughput_ratio"]},
	} {
		verdict := "larger than"
		if math.Abs(c.overhead) <= c.noise {
			verdict = "within"
		}
		fmt.Printf("tracing overhead %s %+.4g%s: %s the range of the untraced half's %d segments, %.4g%s\n",
			c.name, c.overhead, c.unit, verdict, len(plain.samples.rate), c.noise, c.unit)
	}
	path := filepath.Join(filepath.Dir(cfg.work), "spans-"+cfg.workload+".tsv")
	if err := tr.writeTSV(path); err != nil {
		return nil, err
	}
	out.header["spans_file"] = path
	// Self time per span name, the subtraction of adjacent layers.
	stats := summarise(spans)
	layerFromSpans(stats, out)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := stats[n]
		fmt.Printf("span %-28s n=%-8d p50=%9.1fus p99=%9.1fus self/span=%9.1fus\n",
			n, s.Count, s.Durs.quantileUS(0.5), s.Durs.quantileUS(0.99), s.selfUSPerSpan())
	}
	return out, nil
}

// emit prints the human-readable metric lines and the JSON result line.
func emit(w io.Writer, out *outcome, traced bool) error {
	defs := endToEnd
	src := out.e2e
	if traced {
		defs, src = perLayer, out.layer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := src[d.Name]
		if !ok && !traced {
			return fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Fprintf(w, "metric %-36s %16.4f %-6s %s\n", d.Name, v, d.Unit, d.Moves)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	fmt.Fprintf(w, "fail_ratio %.6f (%d of %d operations failed)\n",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	if out.attempted == 0 {
		return fmt.Errorf("no operations attempted")
	}
	res, err := json.Marshal(map[string]any{
		"correct":   len(out.problems) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(res))
	if len(out.problems) > 0 {
		return errCheckFailed
	}
	return nil
}

// runHeader records what a result was measured on.
func runHeader(cfg config, traced bool) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"traced":     traced,
		"commit":     sourceCommit(),
		"source":     sourceDigest(),
		"flush":      "lsm defaults: flush per unit every 4096 records or 4 MiB, compact after 4 level-0 tables",
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

// sourceCommit reads the checkout's commit from .git without running git;
// a checkout without .git reports "unknown".
func sourceCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the code measured where no commit can be read.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// children are the processes the benchmark started; stopOnSignal kills them
// if the benchmark itself is interrupted.
var children = newProcSet()

func stopOnSignal(work string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		children.killAll()
		os.RemoveAll(work)
		os.Exit(2)
	}()
}
