package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// write is one generated entity write, as the workloads issue it.
type write struct {
	key entity.Key
	ops []entity.Op
}

// opBody is soupsd's POST /entities body.
type opBody struct {
	Set      map[string]any     `json:"set,omitempty"`
	Delta    map[string]float64 `json:"delta,omitempty"`
	Describe string             `json:"describe,omitempty"`
}

// writeFromRequest turns a generated POST /entities/Type/ID request into the
// operations soupsd applies for it.
func writeFromRequest(path, body string) (write, error) {
	typ, id, ok := strings.Cut(strings.TrimPrefix(path, "/entities/"), "/")
	if !ok || typ == "" || id == "" {
		return write{}, fmt.Errorf("not an entity path: %s", path)
	}
	var b opBody
	if err := json.Unmarshal([]byte(body), &b); err != nil {
		return write{}, fmt.Errorf("body of %s: %w", path, err)
	}
	w := write{key: entity.Key{Type: typ, ID: id}}
	for _, f := range sortedKeys(b.Set) {
		v := b.Set[f]
		if n, isNum := v.(float64); isNum && n == float64(int64(n)) {
			v = int64(n)
		}
		w.ops = append(w.ops, repro.Set(f, v).Described(b.Describe))
	}
	for _, f := range sortedKeys(b.Delta) {
		w.ops = append(w.ops, repro.Delta(f, b.Delta[f]).Described(b.Describe))
	}
	return w, nil
}

// userBytes is the size of a write as a client would send it: the length of
// its soupsd request body. It is the denominator of every bytes-per-user-byte
// ratio, so the workloads that never touch HTTP are priced the same way.
func userBytes(ops []entity.Op) int {
	b := opBody{}
	for _, op := range ops {
		switch op.Kind {
		case entity.OpSet:
			if b.Set == nil {
				b.Set = map[string]any{}
			}
			b.Set[op.Field] = op.Value
		case entity.OpDelta:
			if b.Delta == nil {
				b.Delta = map[string]float64{}
			}
			b.Delta[op.Field] = op.Delta
		}
	}
	enc, _ := json.Marshal(b)
	return len(enc)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tracedStore is the WAL→lsm backend stack the kernel builds for a unit,
// with spans around the calls lsdb makes into it. It embeds *lsm.Store, so
// lsdb sees the same storage.Tiered implementation it would see in the
// kernel. The replay pass is single-goroutine, which is what makes the
// parent/req hand-off through atomics sound.
type tracedStore struct {
	*lsm.Store
	tr     *tracer
	parent atomic.Int64
	req    atomic.Uint64
}

func (s *tracedStore) span(name string, start time.Time) {
	s.tr.record(0, s.parent.Load(), s.req.Load(), name, start, time.Now())
}

func (s *tracedStore) AppendBatch(recs []storage.WALRecord) error {
	start := time.Now()
	err := s.Store.AppendBatch(recs)
	s.span("storage.append_batch", start)
	return err
}

func (s *tracedStore) Replay(fn func(storage.WALRecord) error) (uint64, error) {
	start := time.Now()
	w, err := s.Store.Replay(fn)
	s.span("storage.replay", start)
	return w, err
}

func (s *tracedStore) LookupSummary(key entity.Key) (*storage.WALRecord, error) {
	start := time.Now()
	rec, err := s.Store.LookupSummary(key)
	s.span("lsm.lookup", start)
	return rec, err
}

// openUnit opens one unit's store the way core.Open does (same lsdb
// options, WAL and lsm defaults, the given fsync mode) over a traced
// backend, recovering whatever dir already holds.
func openUnit(dir string, sync storage.SyncMode, tr *tracer) (*lsdb.DB, *tracedStore, error) {
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir, Sync: sync})
	if err != nil {
		return nil, nil, err
	}
	st, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(dir, "sst")})
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	ts := &tracedStore{Store: st, tr: tr}
	db, err := lsdb.Recover(lsdb.Options{
		Node:            "replay-u0",
		SnapshotEvery:   32,
		Validation:      entity.Managed,
		Shards:          8,
		CheckpointEvery: 4096,
		Backend:         ts,
	}, repro.StandardTypes()...)
	if err != nil {
		ts.Close()
		return nil, nil, err
	}
	return db, ts, nil
}

// replayLayers is the traced run's pass over the layers the kernel calls
// internally. It feeds the workload's generated writes straight to
// lsdb.DB.Append over a fresh traced stack (spans lsdb.append ⊃
// storage.append_batch) for at most budget, flushes every entity to tables,
// reopens (storage.replay) and reads each written key once, cold (spans
// lsdb.current_cold ⊃ lsm.lookup). Self times come from subtracting the
// nested spans.
func replayLayers(dir string, sync storage.SyncMode, writes []write, budget time.Duration, tr *tracer, out *outcome) error {
	// The fresh store replays nothing; spans start after it is open, so the
	// one storage.replay span is the reopen's.
	db, ts, err := openUnit(dir, sync, nil)
	if err != nil {
		return fmt.Errorf("replay open: %w", err)
	}
	ts.tr = tr
	hlc := clock.NewHLC("replay")
	var keys []entity.Key
	seen := map[entity.Key]bool{}
	deadline := time.Now().Add(budget)
	for i, w := range writes {
		if time.Now().After(deadline) {
			break
		}
		id := tr.newID()
		ts.parent.Store(id)
		ts.req.Store(uint64(i))
		start := time.Now()
		_, err := db.Append(w.key, w.ops, hlc.Now(), "replay", "replay-"+strconv.Itoa(i))
		tr.record(id, 0, uint64(i), "lsdb.append", start, time.Now())
		if err != nil {
			db.Close()
			return fmt.Errorf("replay append %s: %w", w.key, err)
		}
		if !seen[w.key] {
			seen[w.key] = true
			keys = append(keys, w.key)
		}
	}
	ts.parent.Store(0)
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return fmt.Errorf("replay flush: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("replay close: %w", err)
	}

	db, ts, err = openUnit(dir, sync, tr)
	if err != nil {
		return fmt.Errorf("replay reopen: %w", err)
	}
	defer db.Close()
	before := db.FlushStats().ColdReads
	for i, k := range keys {
		id := tr.newID()
		ts.parent.Store(id)
		ts.req.Store(uint64(i))
		start := time.Now()
		_, _, err := db.Current(k)
		tr.record(id, 0, uint64(i), "lsdb.current_cold", start, time.Now())
		if err != nil {
			return fmt.Errorf("replay read %s: %w", k, err)
		}
	}
	cold := db.FlushStats().ColdReads - before
	out.header["replay_writes"] = len(seen)
	out.header["replay_cold_reads_per_read"] = ratio(float64(cold), float64(len(keys)))
	return nil
}

// layerFromSpans fills the per-layer metrics that come from span timings.
// Replay spans are always present in a traced run, so these never read 0
// for lack of a measurement.
func layerFromSpans(stats map[string]*spanStats, out *outcome) {
	put := func(metric, span string, q float64) {
		if s := stats[span]; s != nil {
			out.layer[metric] = s.Durs.quantileUS(q)
		}
	}
	put("lsdb.append_p50_us", "lsdb.append", 0.5)
	put("lsdb.append_p99_us", "lsdb.append", 0.99)
	put("storage.append_batch_p50_us", "storage.append_batch", 0.5)
	put("storage.append_batch_p99_us", "storage.append_batch", 0.99)
	put("lsdb.current_cold_p50_us", "lsdb.current_cold", 0.5)
	put("lsm.lookup_p50_us", "lsm.lookup", 0.5)
	put("lsm.lookup_p99_us", "lsm.lookup", 0.99)
	if s := stats["lsdb.append"]; s != nil {
		out.layer["lsdb.append_self_us_per_op"] = s.selfUSPerSpan()
	}
	if s := stats["lsdb.current_cold"]; s != nil {
		out.layer["lsdb.current_cold_self_us_per_op"] = s.selfUSPerSpan()
	}
	if s := stats["storage.replay"]; s != nil {
		out.layer["storage.replay_ms"] = float64(s.Total) / float64(time.Millisecond) / float64(s.Count)
	}
}
