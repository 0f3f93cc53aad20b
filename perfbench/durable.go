package main

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/entity"
	"repro/internal/loadgen"
	"repro/internal/process"
	"repro/internal/storage"
	"repro/internal/txn"
)

// durable-write settings. The traffic is E23's: the submits of http-mix's
// four-scenario stream (crm, banking, inventory, bookstore; round-robin, over
// the same 1M-entity key space), with its reads and history queries dropped
// because the workload is write-only. Two closed-loop writers take the
// stream's arrivals in order from a shared counter. The write-ahead log
// leaves flushing to the page cache (soupsd's default): an fsync per commit
// made every figure follow the shared disk's latency, which moved 2.5x
// between consecutive runs.
const (
	dwUnits         = 4
	dwWriters       = 2
	dwWarmArrivals  = 8_192  // arrivals set-up applies, untimed, before a round
	dwRoundArrivals = 96_000 // arrivals per round (about 83k kernel calls)
	dwMinRound      = 3      // rounds run at least (set-up is timed once per round)
)

// Operation kinds of the durable-write mix.
const (
	kindUpdate = iota
	kindMulti
	kindTentative
	kindKeep
	kindBreak
)

var kindSpan = [...]string{"core.update", "core.transact_multi", "core.tentative", "core.keep_promise", "core.break_promise"}

// dwOp is the kernel call that serves one submit of the stream.
type dwOp struct {
	kind    int
	writes  []write // kindMulti: the order, then the propagated reservation; otherwise one
	restock float64 // a bookstore restock: copies added to the shelf
}

// dwStream is the durable-write traffic: http-mix's scenarios without its
// audit probes, and the inventory scenario, which gives CRM orders their
// item.
type dwStream struct {
	*mixStream
	inventory loadgen.Scenario
}

func newDWStream(seed int64) (*dwStream, error) {
	m, err := newMixStream(seed)
	if err != nil {
		return nil, err
	}
	for _, sc := range m.scenarios {
		if sc.Name() == "inventory" {
			return &dwStream{mixStream: m, inventory: sc}, nil
		}
	}
	return nil, fmt.Errorf("durable-write needs the inventory scenario in %q", mixScenarios)
}

// op maps arrival j onto the kernel call that serves its submit in-process;
// ok is false for a read or a query.
//   - A CRM order becomes TransactMulti: the order, then the reservation of
//     one unit of the item the inventory scenario draws at the same index
//     (the order-to-cash example's inventory.reserve step), propagated
//     through the process pool.
//   - A bookstore order (stock -1) becomes UpdateTentative on the bestseller.
//   - Every other submit (banking deltas, inventory moves, CRM leads and
//     opportunities, bookstore restocks) is an Update.
func (s *dwStream) op(j uint64) (op dwOp, ok bool, err error) {
	req := s.scenarioRequest(j)
	if req.Class != loadgen.Submit {
		return dwOp{}, false, nil
	}
	w, err := writeFromRequest(req.Path, req.Body)
	if err != nil {
		return dwOp{}, false, err
	}
	switch {
	case req.Scenario == "crm" && w.key.Type == "Order":
		item := path.Base(s.inventory.Request(j / uint64(len(s.scenarios))).Path)
		reserve := write{key: entity.Key{Type: "Inventory", ID: item},
			ops: []entity.Op{repro.Delta("onhand", -1).Described("reserved 1 for order " + w.key.ID)}}
		return dwOp{kind: kindMulti, writes: []write{w, reserve}}, true, nil
	case req.Scenario == "bookstore" && len(w.ops) == 1 && w.ops[0].Kind == entity.OpDelta:
		if d := w.ops[0].Delta; d > 0 {
			return dwOp{kind: kindUpdate, writes: []write{w}, restock: d}, true, nil
		}
		return dwOp{kind: kindTentative, writes: []write{w}}, true, nil
	}
	return dwOp{kind: kindUpdate, writes: []write{w}}, true, nil
}

// promise is a pending bookstore order.
type promise struct {
	id  string
	key entity.Key
	qty float64
}

// shelf is the bestseller's fulfilment, after the bookstore example: every
// order is promised at entry, a restock's copies go to the waiting orders
// first come first served (KeepPromise), an order no copy reached waits for
// the next restock, and when the round ends the orders still waiting are
// apologised for (BreakPromise).
type shelf struct {
	mu      sync.Mutex
	copies  float64 // restocked copies no kept order has taken yet
	pending []promise
}

func (s *shelf) promised(p promise) {
	s.mu.Lock()
	s.pending = append(s.pending, p)
	s.mu.Unlock()
}

// restock adds n copies and hands back the waiting orders they fulfil; the
// caller keeps them.
func (s *shelf) restock(n float64) []promise {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.copies += n
	i := 0
	for ; i < len(s.pending) && s.pending[i].qty <= s.copies; i++ {
		s.copies -= s.pending[i].qty
	}
	keep := append([]promise(nil), s.pending[:i]...)
	s.pending = append(s.pending[:0], s.pending[i:]...)
	return keep
}

// closeOut hands back every order still waiting; the caller breaks them.
func (s *shelf) closeOut() []promise {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
	return out
}

func (s *shelf) pendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// model is the expected state: the fold of every acknowledged operation.
// Each writer keeps its own; numeric fields are summed when merged.
type model struct {
	fields map[entity.Key]map[string]any
}

func newModel() *model { return &model{fields: map[entity.Key]map[string]any{}} }

// apply folds ops into the expected state of key.
func (m *model) apply(key entity.Key, ops []entity.Op) {
	f := m.fields[key]
	if f == nil {
		f = map[string]any{}
		m.fields[key] = f
	}
	for _, op := range ops {
		switch op.Kind {
		case entity.OpSet:
			f[op.Field] = op.Value
		case entity.OpDelta:
			f[op.Field] = num(f[op.Field]) + op.Delta
		}
	}
}

// merge folds other into m. Folded deltas are float64 and add; set values
// (strings, and numbers, which request bodies give as int64) must not
// conflict: in the stream every entity with set fields is written once.
func (m *model) merge(other *model) {
	for key, of := range other.fields {
		f := m.fields[key]
		if f == nil {
			f = map[string]any{}
			m.fields[key] = f
		}
		for name, v := range of {
			if d, summed := v.(float64); summed {
				f[name] = num(f[name]) + d
			} else {
				f[name] = v
			}
		}
	}
}

// verify compares every modelled entity with what read returns and reports
// each mismatch (at most a few, then a count).
func (m *model) verify(read func(entity.Key) (map[string]any, error), out *outcome) {
	bad := 0
	for key, want := range m.fields {
		got, err := read(key)
		if err != nil {
			bad++
			if bad <= 5 {
				out.check(false, "read %s: %v", key, err)
			}
			continue
		}
		for name, w := range want {
			g := got[name]
			ok := g == w
			if isNum(w) {
				ok = isNum(g) && num(g) == num(w)
			}
			if !ok {
				bad++
				if bad <= 5 {
					out.check(false, "%s.%s = %v, want %v", key, name, g, w)
				}
			}
		}
	}
	out.check(bad <= 5, "%d mismatches in total over %d entities", bad, len(m.fields))
}

// isNum reports whether v is a number; request bodies give integral numbers
// as int64, and a Float field stores them as float64.
func isNum(v any) bool {
	switch v.(type) {
	case float64, int64, int:
		return true
	}
	return false
}

// num reads a stored numeric field (Int fields hold int64, Float float64).
func num(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int:
		return float64(x)
	}
	return 0
}

// writerResult is one writer's tally.
type writerResult struct {
	lat              *latency
	byKind           [5]*latency
	model            *model
	ops, multis      uint64
	made, kept, brkn uint64
	userBytes        uint64
	err              error
}

func newWriterResult() *writerResult {
	r := &writerResult{lat: newLatency(), model: newModel()}
	for i := range r.byKind {
		r.byKind[i] = newLatency()
	}
	return r
}

// caller returns a function that times one kernel call of writer w and
// scores it.
func (r *writerResult) caller(w int, tr *tracer) func(kind int, fn func() error) bool {
	return func(kind int, fn func() error) bool {
		start := time.Now()
		err := fn()
		end := time.Now()
		tr.record(0, 0, uint64(w)<<40|r.ops, kindSpan[kind], start, end)
		r.ops++
		if err != nil {
			r.lat.fail()
			r.byKind[kind].fail()
			return false
		}
		r.lat.ok(end.Sub(start))
		r.byKind[kind].ok(end.Sub(start))
		return true
	}
}

// closeOut breaks the orders still waiting on the bestseller.
func (s *dwStore) closeOut(tr *tracer) *writerResult {
	r := newWriterResult()
	call := r.caller(dwWriters, tr)
	for _, p := range s.shelf.closeOut() {
		if call(kindBreak, func() error { _, err := s.k.BreakPromise(p.id, "sold out", "refund"); return err }) {
			r.model.apply(p.key, []entity.Op{repro.Delta("stock", p.qty)})
			r.brkn++
		}
	}
	return r
}

// sumWriters sums writers' promise and propagation tallies.
func sumWriters(rs []*writerResult) (made, kept, brkn, multis uint64) {
	for _, r := range rs {
		made, kept, brkn, multis = made+r.made, kept+r.kept, brkn+r.brkn, multis+r.multis
	}
	return
}

func dwOptions(dir string) repro.Options {
	return repro.Options{Node: "bench", Units: dwUnits, DataDir: dir}
}

// readFields returns an entity's current fields.
func readFields(k *repro.Kernel) func(entity.Key) (map[string]any, error) {
	return func(key entity.Key) (map[string]any, error) {
		st, err := k.Read(key)
		if err != nil {
			return nil, err
		}
		return st.Fields, nil
	}
}

// dwStore is one round's durable kernel with the writers' shared state.
type dwStore struct {
	k      *repro.Kernel
	stream *dwStream
	shelf  *shelf
	next   atomic.Uint64   // the next arrival of the stream
	warm   []*writerResult // set-up's writers
}

// dwSetup opens a fresh durable kernel, starts its process pool, applies the
// stream's first dwWarmArrivals arrivals with untimed writers and drains the
// pool.
func dwSetup(dir string, stream *dwStream) (*dwStore, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	k, err := repro.Bootstrap(dwOptions(dir), repro.StandardTypes()...)
	if err != nil {
		return nil, err
	}
	k.Start()
	s := &dwStore{k: k, stream: stream, shelf: &shelf{}}
	proc0 := k.ProcessStats()
	s.warm = s.write(dwWarmArrivals, nil)
	_, _, _, multis := sumWriters(s.warm)
	for _, r := range s.warm {
		if r.err == nil && r.lat.failed.Load() > 0 {
			r.err = fmt.Errorf("%d set-up calls failed", r.lat.failed.Load())
		}
		if r.err != nil {
			k.Close()
			return nil, fmt.Errorf("set-up: %w", r.err)
		}
	}
	if _, err := s.drain(proc0, multis); err != nil {
		k.Close()
		return nil, err
	}
	return s, nil
}

// write runs the writers until the stream has given n more arrivals.
func (s *dwStore) write(n uint64, tr *tracer) []*writerResult {
	end := s.next.Load() + n
	results := make([]*writerResult, dwWriters)
	var wg sync.WaitGroup
	for w := 0; w < dwWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = s.writer(w, end, tr)
		}(w)
	}
	wg.Wait()
	return results
}

// drain waits until the process pool has executed the steps of multis
// propagated writes since proc0 and its queues are empty.
func (s *dwStore) drain(proc0 process.Stats, multis uint64) (time.Duration, error) {
	start := time.Now()
	for s.k.QueueDepth() > 0 || s.k.ProcessStats().StepsExecuted-proc0.StepsExecuted < multis {
		if time.Since(start) > time.Minute {
			return 0, fmt.Errorf("process pool did not drain: depth %d", s.k.QueueDepth())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start), nil
}

func runDurableWrite(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	out.header["kernel"] = fmt.Sprintf("units=%d fsync=os group_commit=off writers=%d scenarios=%s entities=%d warm_arrivals=%d round_arrivals=%d",
		dwUnits, dwWriters, mixScenarios, mixEntities, dwWarmArrivals, dwRoundArrivals)
	var (
		p50s, p99s, rates         []float64
		setups, recovers, disks   []float64
		drains, syncs             []float64
		total                     = newLatency()
		closing                   = newLatency() // untimed closing breaks
		byKind                    = [5]*latency{newLatency(), newLatency(), newLatency(), newLatency(), newLatency()}
		ops, multis, user         uint64
		txnD                      txn.Stats
		procD                     process.Stats
		made, kept, broken, refus uint64
		flushes, stalls, compacts uint64
		writeBytes, syscw         uint64
		last                      storage.TieredStats
		wakeups                   []int
	)
	// Rounds, each on a fresh store: set-up, a fixed amount of closed-loop
	// writing, drain, rest, reopen and verify; as many rounds as fit the
	// time. Fixed work per round keeps the store's size, and so its memory,
	// disk and recovery figures, independent of how fast the machine ran;
	// medians over rounds keep one disturbed round from moving the run's
	// figures. Each round draws its own stream from the seed.
	measured := time.Now()
	var lastRound time.Duration
	for round := 0; round < dwMinRound || time.Since(measured)+lastRound <= cfg.seconds; round++ {
		roundStart := time.Now()
		stream, err := newDWStream(cfg.seed*1000 + int64(round))
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("data-%d", round))
		start := time.Now()
		s, err := dwSetup(dir, stream)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		r, err := dwRound(s, round, tr, out)
		var woken int
		if err == nil {
			woken = stopStarted(s.k, r.expect)
			if woken > 0 {
				fmt.Printf("durable-write round %d: Kernel.Stop needed %d wake-up(s) (lost wake-up in queue.dequeueWait)\n", round, woken)
			}
		}
		s.k.Close()
		runtime.GC()
		if err != nil {
			return nil, err
		}
		wakeups = append(wakeups, woken)
		// Sized once closed: compaction deletes its input tables after the
		// backlog reads 0, so an open store at rest can still be shrinking.
		stored, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		disks = append(disks, ratio(float64(stored), float64(r.allUser)))
		for i := 0; i < 2; i++ {
			rs := time.Now()
			k2, err := repro.Bootstrap(dwOptions(dir), repro.StandardTypes()...)
			if err != nil {
				return nil, fmt.Errorf("reopen: %w", err)
			}
			recovers = append(recovers, time.Since(rs).Seconds())
			if i == 1 {
				r.expect.verify(readFields(k2), out)
			}
			k2.Close()
			runtime.GC()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		p50s, p99s = append(p50s, r.total.quantileUS(0.5)), append(p99s, r.total.quantileUS(0.99))
		rates = append(rates, ratio(float64(r.ops), (r.write+r.drain).Seconds()))
		fmt.Printf("durable-write round %d: p50 %.1fus p99 %.1fus %.0f calls/s set-up %.3fs, %d closing breaks\n", round,
			p50s[len(p50s)-1], p99s[len(p99s)-1], rates[len(rates)-1], setups[len(setups)-1], r.closed.brkn)
		for i := range byKind {
			byKind[i].merge(r.byKind[i])
		}
		total.merge(r.total)
		closing.merge(r.closed.lat)
		ops, multis, user = ops+r.ops, multis+r.multis, user+r.user
		drains, syncs = append(drains, msec(r.drain)), append(syncs, msec(r.sync))
		txnD.Conflicts += r.txn.Conflicts
		txnD.Aborts += r.txn.Aborts
		txnD.LockTimeouts += r.txn.LockTimeouts
		procD.StepsExecuted += r.proc.StepsExecuted
		procD.Retries += r.proc.Retries
		procD.LaneSteals += r.proc.LaneSteals
		procD.PeakLaneDepth = max(procD.PeakLaneDepth, r.proc.PeakLaneDepth)
		made, kept, broken, refus = made+r.made, kept+r.kept, broken+r.broken, refus+r.refused
		flushes, stalls, compacts = flushes+r.flushes, stalls+r.stalls, compacts+r.compactions
		writeBytes, syscw = writeBytes+r.io.WriteBytes, syscw+r.io.Syscw
		last = r.tiered
		lastRound = time.Since(roundStart)
	}
	hwm, err := readProc("self")
	if err != nil {
		return nil, err
	}
	out.attempted = total.attempted() + closing.attempted()
	out.failed = total.failed.Load() + closing.failed.Load()
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_us"] = median(p50s)
	out.e2e["latency_p99_us"] = median(p99s)
	out.e2e["throughput_ops_s"] = median(rates)
	out.e2e["recover_s"] = median(recovers)
	out.e2e["peak_rss_mb"] = float64(hwm.HWMKB) / 1024
	out.e2e["disk_bytes_per_user_byte"] = median(disks)
	out.samples = samples{p50: p50s, rate: rates}
	fmt.Printf("durable-write: %d timed calls (%d propagated; %d promises made, %d kept) and %d untimed closing breaks in %d rounds, fail_ratio %.6f\n",
		ops, multis, made, kept, closing.attempted(), len(rates), ratio(float64(out.failed), float64(out.attempted)))
	out.header["stop_wakeups"] = wakeups

	l := out.layer
	for i, name := range []string{"update", "transact_multi", "tentative"} {
		l["core."+name+"_p50_us"] = byKind[i].quantileUS(0.5)
		l["core."+name+"_p99_us"] = byKind[i].quantileUS(0.99)
	}
	l["txn.conflicts"] = float64(txnD.Conflicts)
	l["txn.aborts"] = float64(txnD.Aborts)
	l["txn.lock_timeouts"] = float64(txnD.LockTimeouts)
	l["process.steps_executed"] = float64(procD.StepsExecuted)
	l["process.retries"] = float64(procD.Retries)
	l["process.lane_steals"] = float64(procD.LaneSteals)
	l["process.peak_lane_depth"] = float64(procD.PeakLaneDepth)
	l["process.drain_ms"] = median(drains)
	l["apology.promises_made"] = float64(made)
	l["apology.promises_kept"] = float64(kept)
	l["apology.promises_broken"] = float64(broken)
	l["apology.promises_refused"] = float64(refus)
	l["lsdb.flushes"] = float64(flushes)
	l["lsdb.flush_stalls"] = float64(stalls)
	l["lsdb.sync_ms"] = median(syncs)
	l["storage.write_bytes_per_user_byte"] = ratio(float64(writeBytes), float64(user))
	l["storage.write_syscalls_per_op"] = ratio(float64(syscw), float64(ops))
	l["lsm.tables"] = float64(last.Tables)
	l["lsm.l0_tables"] = float64(last.L0Tables)
	l["lsm.compactions"] = float64(compacts)
	l["lsm.table_bytes"] = float64(last.Bytes)

	if tr != nil {
		stream, err := newDWStream(cfg.seed)
		if err != nil {
			return nil, err
		}
		var writes []write
		for j := uint64(0); len(writes) < 50_000; j++ {
			op, ok, err := stream.op(j)
			if err != nil {
				return nil, err
			}
			if ok {
				writes = append(writes, op.writes...)
			}
		}
		if err := replayLayers(filepath.Join(cfg.work, "replay"), repro.SyncOS, writes, 2*time.Second, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stopStarted stops k's process pool and returns how many wake-ups that
// needed. queue.dequeueWait can miss its periodic 5ms wake-up (the timer
// fires before the waiter is registered when the goroutine is descheduled
// in between) and then sleeps until the next enqueue; Kernel.Stop waits for
// every unit's dispatcher, so on an idle unit it can wait forever. When Stop
// has not returned after 200ms, a transaction in each unit stages an event
// (Submit refuses once Stop began); publishing it wakes the dispatcher,
// which then sees the stop. The transactions add a zero delta to accounts
// the round already wrote: the state the round is checked against does not
// change, and the store gains at most 32 small records per wake-up.
func stopStarted(k *repro.Kernel, expect *model) int {
	var keys []entity.Key // 32 accounts reach all 4 units but with odds of 1e-4
	for key := range expect.fields {
		if key.Type == "Account" && len(keys) < 32 {
			keys = append(keys, key)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Stop()
	}()
	wakeups := 0
	for {
		select {
		case <-done:
			return wakeups
		case <-time.After(200 * time.Millisecond):
		}
		wakeups++
		for _, key := range keys {
			_, _ = k.Transact(key, func(t *repro.Txn) error {
				t.Emit("steps", repro.Event{Name: "bench.wake", Entity: key})
				return t.Update(key, repro.Delta("balance", 0))
			})
		}
	}
}

func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundResult is what one durable-write round measured.
type roundResult struct {
	total                        *latency
	byKind                       [5]*latency
	expect                       *model
	ops, multis, user, allUser   uint64
	write, drain, sync           time.Duration
	txn                          txn.Stats
	proc                         process.Stats
	made, kept, broken, refused  uint64
	flushes, stalls, compactions uint64
	io                           procSample
	tiered                       storage.TieredStats
	closed                       *writerResult // the round's closing breaks
}

// dwRound runs the writers over one round's arrivals, drains the process
// pool, checks the promise ledger and brings the store to rest (every
// entity flushed, compaction finished) so its size and the reopen that
// follows do not depend on where the last flush fell.
func dwRound(s *dwStore, round int, tr *tracer, out *outcome) (*roundResult, error) {
	k := s.k
	txn0, proc0 := k.TxnStats(), k.ProcessStats()
	tiered0, flush0, _ := k.TieredStats()
	m := k.Metrics()
	made0, kept0, broken0, refused0 := m.Counter("promise.made").Value(), m.Counter("promise.kept").Value(),
		m.Counter("apology.issued").Value(), m.Counter("promise.refused").Value()
	io0, err := readProc("self")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &roundResult{total: newLatency(), expect: newModel()}
	for i := range res.byKind {
		res.byKind[i] = newLatency()
	}
	results := s.write(dwRoundArrivals, tr)
	res.write = time.Since(start)
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	_, _, _, res.multis = sumWriters(results)
	if res.drain, err = s.drain(proc0, res.multis); err != nil {
		return nil, err
	}
	// Fulfilment closes with the round, untimed: how many orders are still
	// waiting follows the bestseller's supply and demand (0 to about 1300 a
	// round), and each break costs milliseconds (it drops the entity's
	// materialised state, so the next access refolds its whole history).
	res.closed = s.closeOut(tr)
	syncStart := time.Now()
	if err := k.Flush(); err != nil {
		return nil, err
	}
	res.sync = time.Since(syncStart)
	io1, err := readProc("self")
	if err != nil {
		return nil, err
	}
	res.io = io1.sub(io0)
	txn1, proc1 := k.TxnStats(), k.ProcessStats()
	tiered1, flush1, _ := k.TieredStats()
	res.txn = txn.Stats{Conflicts: txn1.Conflicts - txn0.Conflicts, Aborts: txn1.Aborts - txn0.Aborts, LockTimeouts: txn1.LockTimeouts - txn0.LockTimeouts}
	res.proc = process.Stats{StepsExecuted: proc1.StepsExecuted - proc0.StepsExecuted, Retries: proc1.Retries - proc0.Retries,
		LaneSteals: proc1.LaneSteals - proc0.LaneSteals, PeakLaneDepth: proc1.PeakLaneDepth}
	res.flushes, res.stalls = flush1.Flushes-flush0.Flushes, flush1.Stalls-flush0.Stalls
	res.compactions = tiered1.Compactions - tiered0.Compactions
	made, kept, broken := m.Counter("promise.made").Value(), m.Counter("promise.kept").Value(), m.Counter("apology.issued").Value()
	res.made, res.kept, res.broken = made-made0, kept-kept0, broken-broken0
	res.refused = m.Counter("promise.refused").Value() - refused0
	pendingNow, ledgerKept, ledgerBroken := k.Ledger().Counts()

	// The promise ledger and the expected state cover set-up's writers too.
	all := append(append([]*writerResult{}, s.warm...), append(results, res.closed)...)
	wMade, wKept, wBroken, _ := sumWriters(all)
	wPending := s.shelf.pendingCount()
	for _, r := range all {
		res.expect.merge(r.model)
		res.allUser += r.userBytes
	}
	for _, r := range results {
		res.total.merge(r.lat)
		for i := range res.byKind {
			res.byKind[i].merge(r.byKind[i])
		}
		res.ops += r.ops
		res.user += r.userBytes
	}
	out.check(made == wMade && kept == wKept && broken == wBroken,
		"round %d: promise counters made/kept/broken %d/%d/%d, writers saw %d/%d/%d", round, made, kept, broken, wMade, wKept, wBroken)
	out.check(made == ledgerKept+ledgerBroken+uint64(pendingNow) && pendingNow == wPending,
		"round %d: promises made %d != kept %d + broken %d + pending %d (writers hold %d pending)", round, made, ledgerKept, ledgerBroken, pendingNow, wPending)

	if err := k.Checkpoint(); err != nil {
		return nil, err
	}
	if err := settle(k); err != nil {
		return nil, err
	}
	res.tiered, _, _ = k.TieredStats()
	return res, nil
}

// writer is one closed-loop writer: it takes the stream's next arrival until
// the stream reaches end, issues the kernel call for each submit back to
// back, and folds each acknowledged one into its model. The writer whose
// restock lands keeps the orders its copies fulfil.
func (s *dwStore) writer(w int, end uint64, tr *tracer) *writerResult {
	k := s.k
	r := newWriterResult()
	call := r.caller(w, tr)
	for {
		j := s.next.Add(1) - 1
		if j >= end {
			return r
		}
		op, ok, err := s.stream.op(j)
		if err != nil {
			r.err = err
			return r
		}
		if !ok {
			continue
		}
		for _, wr := range op.writes {
			r.userBytes += uint64(userBytes(wr.ops))
		}
		switch op.kind {
		case kindUpdate:
			wr := op.writes[0]
			if !call(kindUpdate, func() error { _, err := k.Update(wr.key, wr.ops...); return err }) {
				continue
			}
			r.model.apply(wr.key, wr.ops)
			for _, p := range s.shelf.restock(op.restock) {
				if call(kindKeep, func() error { return k.KeepPromise(p.id) }) {
					r.kept++
				}
			}
		case kindMulti:
			mw := []repro.MultiWrite{{Key: op.writes[0].key, Ops: op.writes[0].ops}, {Key: op.writes[1].key, Ops: op.writes[1].ops}}
			if call(kindMulti, func() error { return k.TransactMulti(mw) }) {
				r.model.apply(op.writes[0].key, op.writes[0].ops)
				r.model.apply(op.writes[1].key, op.writes[1].ops)
				r.multis++
			}
		case kindTentative:
			wr := op.writes[0]
			qty := -wr.ops[0].Delta
			var p repro.Promise
			if call(kindTentative, func() error {
				var err error
				p, err = k.UpdateTentative(wr.key, "customer-"+strconv.FormatUint(j, 10), "order-confirmation", qty, wr.ops...)
				return err
			}) {
				r.model.apply(wr.key, wr.ops)
				r.made++
				s.shelf.promised(promise{id: p.ID, key: wr.key, qty: qty})
			}
		}
	}
}
