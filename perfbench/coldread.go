package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/entity"
	"repro/internal/storage"
	"repro/internal/workload"
)

// cold-read settings. Every pass reopens the store, so each key is cold once
// per pass; strided order keeps consecutive reads off the same table block.
// 100k entities keep a populate (three per run) near 4s and the reader's
// memory near 200MB.
const (
	crEntities  = 100_000
	crUnits     = 4
	crReaders   = 2
	crPopWriter = 2
)

// crWrite is set-up's write for entity i: its owner and balance are a pure
// function of (seed, i), so every read can be checked without a model.
func crWrite(seed int64, i uint64) write {
	h := workload.Mix(uint64(seed), i)
	return write{
		key: entity.Key{Type: "Account", ID: "cr-" + strconv.FormatUint(i, 10)},
		ops: []entity.Op{repro.Set("owner", "owner-"+strconv.FormatUint(h%1_000_003, 36)), repro.Set("balance", float64(h%100_000))},
	}
}

func crOptions(dir string) repro.Options {
	return repro.Options{Node: "bench", Units: crUnits, DataDir: dir}
}

// populateColdRead writes every entity durably, flushes them all to tables
// and closes. It runs in a child process, so the reads that follow are
// measured in a process whose memory never held the data.
func populateColdRead(dir string, seed int64, n uint64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	k, err := repro.Bootstrap(crOptions(dir), repro.StandardTypes()...)
	if err != nil {
		return err
	}
	defer k.Close()
	errs := make(chan error, crPopWriter)
	for w := 0; w < crPopWriter; w++ {
		go func(w int) {
			for i := uint64(w); i < n; i += crPopWriter {
				wr := crWrite(seed, i)
				if _, err := k.Update(wr.key, wr.ops...); err != nil {
					errs <- fmt.Errorf("populate %s: %w", wr.key, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < crPopWriter; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	if err := k.Checkpoint(); err != nil {
		return err
	}
	// lsm kicks its compactor only when a flush lands, so a backlog left at
	// close would outlive the reopen; finish it here.
	if err := settle(k); err != nil {
		return err
	}
	return k.Flush()
}

// settle waits until the store has no compaction backlog and no pending
// flush: background work set-up left behind is finished before timing.
func settle(k *repro.Kernel) error {
	deadline := time.Now().Add(time.Minute)
	for {
		ts, fs, _ := k.TieredStats()
		if ts.CompactionBacklog == 0 && fs.PendingBytes == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction backlog %d, pending flush %d bytes after 1m", ts.CompactionBacklog, fs.PendingBytes)
		}
		time.Sleep(time.Millisecond)
	}
}

func runColdRead(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	out.header["kernel"] = fmt.Sprintf("units=%d fsync=os entities=%d readers=%d", crUnits, crEntities, crReaders)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "data")

	// Set-up: populate in a child process, several times; the last store is
	// the one read.
	var populates []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		cmd := exec.Command(self, "-populate", dir, "-seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
		populates = append(populates, time.Since(start).Seconds())
	}

	// Timed passes: reopen, let background work finish, read every key once
	// in strided order, close; as many whole passes as fit the time.
	// Percentiles and rates are medians over passes.
	total := newLatency()
	var p50s, p99s, rates, recovers, settles []float64
	var reads, coldReads uint64
	var delta, last storage.TieredStats
	bad := 0
	measured := time.Now()
	var lastPass time.Duration
	for pass := 0; pass == 0 || time.Since(measured)+lastPass <= cfg.seconds; pass++ {
		passStart := time.Now()
		k, err := repro.Bootstrap(crOptions(dir), repro.StandardTypes()...)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		recovers = append(recovers, time.Since(passStart).Seconds())
		start := time.Now()
		if err := settle(k); err != nil {
			k.Close()
			return nil, err
		}
		settles = append(settles, time.Since(start).Seconds())
		ts0, fs0, _ := k.TieredStats()

		start = time.Now()
		lats := make([]*latency, crReaders)
		wrong := make([]int, crReaders)
		var wg sync.WaitGroup
		for r := 0; r < crReaders; r++ {
			lats[r] = newLatency()
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := uint64(r); i < crEntities; i += crReaders {
					want := crWrite(cfg.seed, workload.Stride(i, crEntities))
					t0 := time.Now()
					st, err := k.Read(want.key)
					t1 := time.Now()
					tr.record(0, 0, uint64(pass)<<40|i, "core.read", t0, t1)
					if err != nil {
						lats[r].fail()
						wrong[r]++
						continue
					}
					lats[r].ok(t1.Sub(t0))
					if st.Fields["owner"] != want.ops[0].Value || num(st.Fields["balance"]) != num(want.ops[1].Value) {
						wrong[r]++
					}
				}
			}(r)
		}
		wg.Wait()
		readTime := time.Since(start)
		ts1, fs1, _ := k.TieredStats()
		k.Close()
		// Release this pass's store before the next opens, so peak memory
		// is one store's, not wherever the collector happened to run.
		runtime.GC()
		passLat := newLatency()
		for r := 0; r < crReaders; r++ {
			passLat.merge(lats[r])
			bad += wrong[r]
		}
		total.merge(passLat)
		reads += passLat.attempted()
		p50s = append(p50s, passLat.quantileUS(0.5))
		p99s = append(p99s, passLat.quantileUS(0.99))
		rates = append(rates, float64(passLat.attempted())/readTime.Seconds())
		coldReads += fs1.ColdReads - fs0.ColdReads
		delta.BloomHits += ts1.BloomHits - ts0.BloomHits
		delta.BloomFalse += ts1.BloomFalse - ts0.BloomFalse
		delta.BloomSkips += ts1.BloomSkips - ts0.BloomSkips
		last = ts1
		lastPass = time.Since(passStart)
	}
	out.check(bad == 0, "%d of %d reads did not return the value set-up wrote", bad, reads)
	hwm, err := readProc("self")
	if err != nil {
		return nil, err
	}
	stored, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	var user uint64
	for i := uint64(0); i < crEntities; i++ {
		user += uint64(userBytes(crWrite(cfg.seed, i).ops))
	}

	out.attempted, out.failed = total.attempted(), total.failed.Load()
	out.e2e["latency_p50_us"] = median(p50s)
	out.e2e["latency_p99_us"] = median(p99s)
	out.e2e["throughput_ops_s"] = median(rates)
	out.samples = samples{p50: p50s, rate: rates}
	out.e2e["setup_s"] = median(populates) + median(settles)
	out.e2e["recover_s"] = median(recovers)
	out.e2e["peak_rss_mb"] = float64(hwm.HWMKB) / 1024
	out.e2e["disk_bytes_per_user_byte"] = ratio(float64(stored), float64(user))
	fmt.Printf("cold-read: %d passes, %d reads, populate median %.3fs, settle median %.3fs, fail_ratio %.6f\n",
		len(recovers), reads, median(populates), median(settles), total.failRatio())

	l := out.layer
	l["lsdb.cold_reads_per_read"] = ratio(float64(coldReads), float64(reads))
	l["lsm.tables_read_per_lookup"] = ratio(float64(delta.BloomHits+delta.BloomFalse), float64(coldReads))
	l["lsm.bloom_checks"] = float64(delta.BloomFalse + delta.BloomSkips)
	l["lsm.bloom_false_positive_ratio"] = ratio(float64(delta.BloomFalse), float64(delta.BloomFalse+delta.BloomSkips))
	l["lsm.tables"] = float64(last.Tables)
	l["lsm.l0_tables"] = float64(last.L0Tables)
	l["lsm.table_bytes"] = float64(last.Bytes)

	if tr != nil {
		writes := make([]write, 0, 50_000)
		for i := uint64(0); i < 50_000; i++ {
			writes = append(writes, crWrite(cfg.seed, i))
		}
		if err := replayLayers(filepath.Join(cfg.work, "replay"), storage.SyncOS, writes, 2*time.Second, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
