package lsdb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// flushCounter is a tiered store that remembers, per key, the metadata of
// every entry a flush hands to FlushTable: what a table would hold, counted
// where the flush emits it.
type flushCounter struct {
	*lsm.Store
	mu      sync.Mutex
	entries map[entity.Key][]storage.WALRecord
}

func newFlushCounter(t testing.TB, dir string) *flushCounter {
	return &flushCounter{Store: openTestTiered(t, dir, nil), entries: map[entity.Key][]storage.WALRecord{}}
}

func (c *flushCounter) FlushTable(entries []storage.WALRecord, watermark, boundary uint64) error {
	c.mu.Lock()
	for _, e := range entries {
		// Summaries are recycled after the write; keep the metadata only.
		c.entries[e.Key] = append(c.entries[e.Key], storage.WALRecord{Kind: e.Kind, LSN: e.LSN, TxnID: e.TxnID, Horizon: e.Horizon})
	}
	c.mu.Unlock()
	return c.Store.FlushTable(entries, watermark, boundary)
}

// take returns what the flushes since the last take emitted for key.
func (c *flushCounter) take(key entity.Key) []storage.WALRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.entries[key]
	delete(c.entries, key)
	return got
}

// promise writes a tentative record under txn and keep confirms it, the
// log-level shape of Kernel.UpdateTentative and Kernel.KeepPromise.
func promise(t *testing.T, db *DB, key entity.Key, txn string, amount float64) AppendResult {
	t.Helper()
	res, err := db.AppendTentative(key, []entity.Op{entity.Delta("balance", amount)}, stamp(1), "n", txn)
	if err != nil {
		t.Fatalf("promise %s: %v", txn, err)
	}
	return res
}

func keep(t *testing.T, db *DB, key entity.Key, txn string) {
	t.Helper()
	if _, err := db.Append(key, []entity.Op{entity.Confirm(txn)}, stamp(2), "n", ""); err != nil {
		t.Fatalf("keep %s: %v", txn, err)
	}
}

// recordOf returns a copy of the record txn wrote on key (nil when it is not
// in the log).
func recordOf(db *DB, key entity.Key, txn string) *Record {
	s := db.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	lsn, ok := s.byTxn[key][txn]
	if !ok {
		return nil
	}
	if rec := s.recordAtLocked(lsn); rec != nil {
		cp := *rec
		return &cp
	}
	return nil
}

// flushSummaryOnly flushes and requires the key's whole history to come out
// as one summary through the store's head.
func flushSummaryOnly(t *testing.T, db *DB, fc *flushCounter, key entity.Key) {
	t.Helper()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := fc.take(key)
	if len(got) != 1 || got[0].Kind != storage.KindSummary || got[0].Horizon != db.HeadLSN() {
		t.Fatalf("flush of %s emitted %d entries (first %+v), want one summary through %d", key, len(got), got[:min(len(got), 1)], db.HeadLSN())
	}
}

// TestKeptPromisesFlushAsOneSummary is the flush-volume regression: a hot
// entity's kept promises are settled, so the flush after 1,000 kept promises
// emits one summary for the key instead of re-carrying every record as
// detail. A single pending promise pins the horizon exactly below itself.
func TestKeptPromisesFlushAsOneSummary(t *testing.T) {
	fc := newFlushCounter(t, t.TempDir())
	db := newTestDB(t, Options{Shards: 2, Backend: fc})
	defer db.Close()
	const n = 1000

	hot := entity.Key{Type: "Account", ID: "bestseller"}
	for i := 0; i < n; i++ {
		promise(t, db, hot, fmt.Sprintf("p%d", i), -1)
	}
	for i := 0; i < n; i++ {
		keep(t, db, hot, fmt.Sprintf("p%d", i))
	}
	flushSummaryOnly(t, db, fc, hot)

	mid := entity.Key{Type: "Account", ID: "one-pending"}
	var pending Record
	for i := 0; i < n; i++ {
		res := promise(t, db, mid, fmt.Sprintf("q%d", i), -1)
		if i == n/2 {
			pending = res.Record
		}
	}
	for i := 0; i < n; i++ {
		if i != n/2 {
			keep(t, db, mid, fmt.Sprintf("q%d", i))
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := fc.take(mid)
	if len(got) < 2 || got[0].Kind != storage.KindSummary || got[0].Horizon != pending.LSN-1 {
		t.Fatalf("summary %+v, want one through LSN %d (just below the pending promise)", got[:min(len(got), 1)], pending.LSN-1)
	}
	if got[1].LSN != pending.LSN || got[1].TxnID != pending.TxnID {
		t.Fatalf("detail starts at LSN %d (%s), want the pending promise at %d (%s)", got[1].LSN, got[1].TxnID, pending.LSN, pending.TxnID)
	}
	if detail, want := uint64(len(got)-1), db.HeadLSN()-pending.LSN+1; detail != want {
		t.Fatalf("%d detail records, want the %d from the pending promise on", detail, want)
	}
	if again := fc.take(hot); len(again) != 0 {
		t.Fatalf("settled key re-emitted %d entries by an unrelated flush", len(again))
	}
}

// TestMarkObsoleteRefusesKeptPromise: a kept promise can no longer be
// withdrawn. The refusal comes before the mark is logged or shipped and
// leaves the record, the cached state and the dirty set as they were.
func TestMarkObsoleteRefusesKeptPromise(t *testing.T) {
	dir := t.TempDir()
	sink := &sinkLog{}
	db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil), CommitSink: sink.sink})
	k := entity.Key{Type: "Account", ID: "k"}
	promise(t, db, k, "p1", 7)
	keep(t, db, k, "p1")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, head, err := db.Current(k)
	if err != nil {
		t.Fatal(err)
	}
	shipped := len(sink.all())

	if err := db.MarkObsolete(k, "p1"); !errors.Is(err, ErrPromiseKept) {
		t.Fatalf("MarkObsolete of a kept promise = %v, want ErrPromiseKept", err)
	}
	if got := len(sink.all()); got != shipped {
		t.Fatalf("refused mark reached the commit sink (%d records, want %d)", got, shipped)
	}
	s := db.shardFor(k)
	s.mu.RLock()
	rec := s.recordAtLocked(s.byTxn[k]["p1"])
	c := s.cache[k]
	dirty := len(s.dirty)
	s.mu.RUnlock()
	if rec == nil || rec.Obsolete || !rec.Kept {
		t.Fatalf("kept record changed by a refused mark: %+v", rec)
	}
	if c == nil || c.state != before || c.head != head {
		t.Fatal("refused mark dropped the cached state")
	}
	if dirty != 0 {
		t.Fatalf("refused mark dirtied %d keys", dirty)
	}
	db.Close()

	// Nothing reached the log either: a logged mark would withdraw the
	// promise on replay.
	rec2, err := Recover(Options{Node: "test-node", Shards: 2, Backend: openTestTiered(t, dir, nil)}, accountType(), orderType())
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if st, _, err := rec2.Current(k); err != nil || st.Fields["balance"] != 7.0 {
		t.Fatalf("after reopen: balance %v (%v), want the kept 7", st.Fields["balance"], err)
	}
}

// TestKeptDerivedOnEveryInstallPath: Kept is never encoded, so every path
// that installs records must re-derive it from the confirming record —
// recovery from the WAL tail, recovery from table detail plus the tail (the
// kept promise above a pending one, its confirmation either in the tail or in
// the table), and records ingested during a streaming promotion. After each,
// a flush must summarise through the kept records.
func TestKeptDerivedOnEveryInstallPath(t *testing.T) {
	k := entity.Key{Type: "Account", ID: "k"}
	reopen := func(t *testing.T, db *DB, dir string) (*DB, *flushCounter) {
		t.Helper()
		warmEverything(t, db)
		db.Close()
		fc := newFlushCounter(t, dir)
		rec, err := Recover(Options{Node: "test-node", Shards: 2, Backend: fc}, accountType(), orderType())
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return rec, fc
	}
	requireKept := func(t *testing.T, db *DB, txns ...string) {
		t.Helper()
		for _, txn := range txns {
			if rec := recordOf(db, k, txn); rec == nil || !rec.Kept {
				t.Fatalf("%s not re-derived as kept: %+v", txn, rec)
			}
		}
	}

	t.Run("wal-tail", func(t *testing.T) {
		dir := t.TempDir()
		db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil)})
		for i := 0; i < 3; i++ {
			promise(t, db, k, fmt.Sprintf("p%d", i), 1)
		}
		for i := 0; i < 3; i++ {
			keep(t, db, k, fmt.Sprintf("p%d", i))
		}
		rec, fc := reopen(t, db, dir)
		defer rec.Close()
		requireKept(t, rec, "p0", "p1", "p2")
		flushSummaryOnly(t, rec, fc, k)
	})

	for _, confirmFlushed := range []bool{false, true} {
		t.Run(fmt.Sprintf("table-detail/confirm-flushed=%v", confirmFlushed), func(t *testing.T) {
			dir := t.TempDir()
			db := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil)})
			if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 5)}, stamp(1), "n", ""); err != nil {
				t.Fatal(err)
			}
			promise(t, db, k, "pending", 10)
			promise(t, db, k, "kept", 20)
			if err := db.Checkpoint(); err != nil { // both promises become table detail
				t.Fatal(err)
			}
			keep(t, db, k, "kept")
			if confirmFlushed { // the pending promise keeps the confirmation detail too
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			rec, fc := reopen(t, db, dir)
			defer rec.Close()
			requireKept(t, rec, "kept")
			if p := recordOf(rec, k, "pending"); p == nil || p.Kept {
				t.Fatalf("pending promise after recovery: %+v", p)
			}
			keep(t, rec, k, "pending")
			flushSummaryOnly(t, rec, fc, k)
			if st, _, err := rec.Current(k); err != nil || st.Fields["balance"] != 35.0 {
				t.Fatalf("balance %v (%v), want 35", st.Fields["balance"], err)
			}
		})
	}

	t.Run("ingest-shipped", func(t *testing.T) {
		// The promoted store holds the promise in its own log; the
		// confirmation arrives from a peer's tail during the union.
		primary := newTestDB(t, Options{Shards: 2})
		promise(t, primary, k, "p1", 3)
		keep(t, primary, k, "p1")
		shipped := primary.RecordsAfter(0)

		dir := t.TempDir()
		local := newTestDB(t, Options{Shards: 2, Backend: openTestTiered(t, dir, nil)})
		if err := local.IngestShipped(shipped[:1]); err != nil {
			t.Fatal(err)
		}
		promoted, fc := reopen(t, local, dir)
		defer promoted.Close()
		if err := promoted.IngestShipped(shipped[1:]); err != nil {
			t.Fatalf("IngestShipped: %v", err)
		}
		requireKept(t, promoted, "p1")
		flushSummaryOnly(t, promoted, fc, k)
	})
}

// TestSettledBaseFollowsWithdrawal: a capture that leaves detail above its
// horizon keeps its summary as the key's settled base, and the next
// capture's rollup starts there. Withdrawing a record the base folded in
// must drop it, or the next summary would still count the record.
func TestSettledBaseFollowsWithdrawal(t *testing.T) {
	fc := newFlushCounter(t, t.TempDir())
	db := newTestDB(t, Options{Shards: 2, Backend: fc})
	defer db.Close()
	k := entity.Key{Type: "Account", ID: "k"}
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 100)}, stamp(1), "n", "u1"); err != nil {
		t.Fatal(err)
	}
	promise(t, db, k, "p1", 5)
	if err := db.Checkpoint(); err != nil { // summary through u1, base kept
		t.Fatal(err)
	}
	if err := db.MarkObsolete(k, "u1"); err != nil {
		t.Fatal(err)
	}
	keep(t, db, k, "p1")
	if _, err := db.Append(k, []entity.Op{entity.Delta("balance", 1)}, stamp(3), "n", ""); err != nil {
		t.Fatal(err)
	}
	promise(t, db, k, "p2", 7) // keeps the horizon below the head
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := db.shardFor(k)
	s.mu.RLock()
	base := s.settled[k]
	s.mu.RUnlock()
	if base.state == nil || base.state.Fields["balance"] != 6.0 {
		t.Fatalf("settled base after the withdrawal: %+v, want balance 6 through the kept promise", base.state)
	}
}

// TestReplayedMarkWithdrawsKeptRecord: a mark in the log was accepted while
// its record was still pending, so replay applies it even when the replay
// order already installed the confirmation (recovery anchors marks at the
// highest LSN seen, which table detail can push past the confirmation).
// Recovery must not fail, and the promise stays withdrawn as it was live.
func TestReplayedMarkWithdrawsKeptRecord(t *testing.T) {
	k := entity.Key{Type: "Account", ID: "k"}
	backend := storage.NewMemory()
	for _, batch := range [][]storage.WALRecord{
		{{LSN: 1, Key: k, Ops: []entity.Op{entity.Delta("balance", 4)}, Stamp: stamp(1), TxnID: "p1", Tentative: true}},
		{{LSN: 2, Key: k, Ops: []entity.Op{entity.Confirm("p1")}, Stamp: stamp(2)}},
		{{Kind: storage.KindObsolete, Key: k, TxnID: "p1"}},
	} {
		if err := backend.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Recover(Options{Node: "test-node", Backend: backend}, accountType())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec := recordOf(db, k, "p1"); rec == nil || !rec.Obsolete || rec.Kept {
		t.Fatalf("replayed mark did not withdraw the record: %+v", rec)
	}
	if st, _, err := db.Current(k); err != nil || st.Fields["balance"] != nil {
		t.Fatalf("balance %v (%v), want the withdrawn promise excluded", st.Fields["balance"], err)
	}
}

// TestPromiseFoldExactness is the differential exactness check for promises:
// seeded random interleavings of updates, promises made, kept, broken and
// (refused) withdrawn after keeping, flushes, table compactions and
// reopen-from-disk. After every step, each key's Current must equal the naive
// fold of its non-obsolete records in LSN order — whatever layout of
// summaries, table detail and WAL tail the history produced. Run under -race
// in CI.
func TestPromiseFoldExactness(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 150
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runPromiseFold(t, seed, steps) })
	}
}

// modelRecord is one record of the reference log.
type modelRecord struct {
	ops                 []entity.Op
	tentative, obsolete bool
}

// promiseRef points at a promise's record in the reference log.
type promiseRef struct {
	key entity.Key
	txn string
	idx int
}

func runPromiseFold(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	store := openTestTiered(t, dir, nil)
	opts := Options{Node: "test-node", Shards: 2, SnapshotEvery: 4, Backend: store}
	db := newTestDB(t, opts)
	defer func() { db.Close() }()

	keys := []entity.Key{{Type: "Account", ID: "a"}, {Type: "Account", ID: "b"}, {Type: "Account", ID: "c"}}
	model := map[entity.Key][]modelRecord{}
	var pending, kept []promiseRef
	typ := accountType()
	pick := func(refs *[]promiseRef) (promiseRef, bool) {
		if len(*refs) == 0 {
			return promiseRef{}, false
		}
		i := rng.Intn(len(*refs))
		p := (*refs)[i]
		*refs = append((*refs)[:i], (*refs)[i+1:]...)
		return p, true
	}

	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(len(keys))]
		var what string
		switch r := rng.Intn(100); {
		case r < 30:
			what = "update"
			op := entity.Delta("balance", float64(rng.Intn(9)-4))
			if rng.Intn(3) == 0 {
				op = entity.Set("owner", fmt.Sprintf("o%d", rng.Intn(4)))
			}
			if _, err := db.Append(key, []entity.Op{op}, stamp(int64(step)), "n", ""); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			model[key] = append(model[key], modelRecord{ops: []entity.Op{op}})
		case r < 55:
			what = "promise"
			txn := fmt.Sprintf("p%d", step)
			op := entity.Delta("balance", float64(10+rng.Intn(90)))
			if _, err := db.AppendTentative(key, []entity.Op{op}, stamp(int64(step)), "n", txn); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			pending = append(pending, promiseRef{key: key, txn: txn, idx: len(model[key])})
			model[key] = append(model[key], modelRecord{ops: []entity.Op{op}, tentative: true})
		case r < 70:
			what = "keep"
			p, ok := pick(&pending)
			if !ok {
				continue
			}
			op := entity.Confirm(p.txn)
			if _, err := db.Append(p.key, []entity.Op{op}, stamp(int64(step)), "n", ""); err != nil {
				t.Fatalf("step %d %s %s: %v", step, what, p.txn, err)
			}
			model[p.key] = append(model[p.key], modelRecord{ops: []entity.Op{op}})
			kept = append(kept, p)
		case r < 80:
			what = "break"
			p, ok := pick(&pending)
			if !ok {
				continue
			}
			if err := db.MarkObsolete(p.key, p.txn); err != nil {
				t.Fatalf("step %d %s %s: %v", step, what, p.txn, err)
			}
			model[p.key][p.idx].obsolete = true
		case r < 84:
			what = "withdraw-kept"
			if len(kept) == 0 {
				continue
			}
			p := kept[rng.Intn(len(kept))]
			// Refused while the record is in the log; not found once a
			// flush summarised it and a reopen dropped the detail.
			if err := db.MarkObsolete(p.key, p.txn); !errors.Is(err, ErrPromiseKept) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d %s %s = %v, want a refusal", step, what, p.txn, err)
			}
		case r < 91:
			what = "flush"
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		case r < 95:
			what = "compact"
			if err := store.CompactNow(); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		default:
			what = "reopen"
			if err := db.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			store = openTestTiered(t, dir, nil)
			opts.Backend = store
			var err error
			if db, err = Recover(opts, accountType(), orderType()); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		}
		for _, k := range keys {
			if len(model[k]) == 0 {
				continue
			}
			want := foldModel(t, typ, k, model[k])
			got, _, err := db.Current(k)
			if err != nil {
				t.Fatalf("step %d after %s: Current(%s): %v", step, what, k, err)
			}
			if !reflect.DeepEqual(got.Fields, want.Fields) || got.Tentative != want.Tentative {
				t.Fatalf("step %d after %s: %s = %v tentative=%v, naive fold %v tentative=%v",
					step, what, k, got.Fields, got.Tentative, want.Fields, want.Tentative)
			}
		}
	}
}

// foldModel is the reference rollup: every non-obsolete record in order,
// tentative records flagging the state, from an empty state.
func foldModel(t *testing.T, typ *entity.Type, key entity.Key, recs []modelRecord) *entity.State {
	t.Helper()
	st := entity.NewState(key)
	for _, r := range recs {
		if r.obsolete {
			continue
		}
		next, _, err := entity.Apply(typ, st, r.ops, entity.Managed)
		if err != nil {
			t.Fatalf("reference fold: %v", err)
		}
		if r.tentative {
			next.Tentative = true
		}
		st = next
	}
	return st
}
