package lsdb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/entity"
)

// checkVersionChain verifies one returned chain of the hot entity: Seq runs
// 1..n without gaps, and — when the chain carries states — every state
// equals an independent fold of the versions up to it (the sum of the
// non-obsolete deltas, tentative once any non-obsolete promise is in).
// Versions results must carry no states at all.
func checkVersionChain(h *entity.History, withStates bool) error {
	var balance float64
	tentative := false
	for i, v := range h.Versions {
		if v.Seq != uint64(i+1) {
			return fmt.Errorf("version %d has Seq %d: chain not contiguous", i, v.Seq)
		}
		if !withStates {
			if v.State != nil {
				return fmt.Errorf("Versions returned a state at Seq %d", v.Seq)
			}
			continue
		}
		if !v.Obsolete {
			for _, op := range v.Ops {
				balance += op.Delta
			}
			tentative = tentative || v.Tentative
		}
		if v.State == nil {
			return fmt.Errorf("History returned no state at Seq %d", v.Seq)
		}
		if got := v.State.Float("balance"); got != balance || v.State.Tentative != tentative {
			return fmt.Errorf("state at Seq %d = balance %v tentative %v, independent fold = %v %v",
				v.Seq, got, v.State.Tentative, balance, tentative)
		}
	}
	return nil
}

// TestHistoryLockScopeUnderConcurrentWriters races History and Versions on
// a hot entity against every writer of its shard: plain and tentative
// appends, obsolescence marks, tiered flushes and compactions that rewrite
// the shard's segments in place. The collector holds the read lock only to
// copy version metadata and folds states after releasing it, so every chain
// a reader gets back must still be one consistent cut. Run with -race.
func TestHistoryLockScopeUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Shards: 1, SegmentSize: 32, Backend: openTestTiered(t, dir, nil)})
	defer db.Close()

	hot := entity.Key{Type: "Account", ID: "hot"}
	var clk atomic.Int64
	next := func() int64 { return clk.Add(1) }
	if _, err := db.Append(hot, []entity.Op{entity.Delta("balance", 1)}, stamp(next()), "n", ""); err != nil {
		t.Fatal(err)
	}

	const rounds = 150
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, 1) // the first failure is reported; later ones drop
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	writer := func(body func(i int) error) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				if err := body(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	writer(func(i int) error {
		_, err := db.Append(hot, []entity.Op{entity.Delta("balance", float64(i%7)+0.5)}, stamp(next()), "n", "")
		return err
	})
	writer(func(i int) error {
		txn := fmt.Sprintf("promise-%d", i)
		if _, err := db.AppendTentative(hot, []entity.Op{entity.Delta("balance", -2)}, stamp(next()), "n", txn); err != nil {
			return err
		}
		if i%2 == 0 {
			return db.MarkObsolete(hot, txn)
		}
		return nil
	})
	writer(func(i int) error {
		// Fillers in the same shard give Compact records to drop, so it
		// rewrites the segments the hot entity's records live in. The hot
		// entity is written after the horizon is read, so it is never
		// archived and its chain always starts from the empty state.
		filler := entity.Key{Type: "Account", ID: fmt.Sprintf("filler-%d", i)}
		if _, err := db.Append(filler, []entity.Op{entity.Delta("balance", 1)}, stamp(next()), "n", ""); err != nil {
			return err
		}
		horizon := db.HeadLSN()
		if _, err := db.Append(hot, []entity.Op{entity.Delta("balance", 3)}, stamp(next()), "n", ""); err != nil {
			return err
		}
		db.Compact(horizon)
		if i%10 == 0 {
			return db.Checkpoint() // a synchronous tiered flush
		}
		return nil
	})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !done.Load() {
				var h *entity.History
				var err error
				withStates := r == 0
				if withStates {
					h, err = db.History(hot)
				} else {
					h, err = db.Versions(hot)
				}
				if err == nil {
					err = checkVersionChain(h, withStates)
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	h, err := db.History(hot)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVersionChain(h, true); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 3*rounds; len(h.Versions) != want {
		t.Fatalf("final history has %d versions, want %d", len(h.Versions), want)
	}
}

// TestVersionsIsHistoryWithoutStates: both calls share one collector, so
// they return the same chain; only the states differ.
func TestVersionsIsHistoryWithoutStates(t *testing.T) {
	db := newTestDB(t, Options{Shards: 2})
	key := entity.Key{Type: "Account", ID: "A"}
	for i := 0; i < 6; i++ {
		var err error
		if i%3 == 2 {
			_, err = db.AppendTentative(key, []entity.Op{entity.Delta("balance", 5)}, stamp(int64(i+1)), "n", fmt.Sprintf("p%d", i))
		} else {
			_, err = db.Append(key, []entity.Op{entity.Set("owner", "o"), entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", "")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.MarkObsolete(key, "p2"); err != nil {
		t.Fatal(err)
	}
	hist, err := db.History(key)
	if err != nil {
		t.Fatal(err)
	}
	vers, err := db.Versions(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVersionChain(hist, true); err != nil {
		t.Fatal(err)
	}
	if err := checkVersionChain(vers, false); err != nil {
		t.Fatal(err)
	}
	if len(vers.Versions) != len(hist.Versions) {
		t.Fatalf("Versions has %d entries, History %d", len(vers.Versions), len(hist.Versions))
	}
	for i, v := range vers.Versions {
		withState := *hist.Versions[i]
		withState.State = nil
		if fmt.Sprint(*v) != fmt.Sprint(withState) {
			t.Fatalf("version %d differs:\n Versions %+v\n History  %+v", i, *v, withState)
		}
	}
	if _, err := db.Versions(entity.Key{Type: "Account", ID: "missing"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Versions on a missing entity = %v, want ErrNotFound", err)
	}
	if _, err := db.Versions(entity.Key{Type: "Nope", ID: "x"}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("Versions on an unknown type = %v, want ErrUnknownType", err)
	}
}

// TestVersionsAllocationsIndependentOfLength pins the collector's budget:
// one slab, one pointer slice, one History — the same for 100 versions as
// for 1,000.
func TestVersionsAllocationsIndependentOfLength(t *testing.T) {
	db := newTestDB(t, Options{Shards: 1})
	allocs := func(n int) float64 {
		key := entity.Key{Type: "Account", ID: fmt.Sprintf("len-%d", n)}
		for i := 0; i < n; i++ {
			if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if h, err := db.Versions(key); err != nil || len(h.Versions) != n {
				t.Fatalf("Versions = %v, %v", h, err)
			}
		})
	}
	short, long := allocs(100), allocs(1000)
	if short != long {
		t.Fatalf("collecting 100 versions allocates %v times, 1000 versions %v: the budget grows with history", short, long)
	}
	if short > 3 {
		t.Fatalf("collecting versions allocates %v times, want at most 3 (slab, pointers, history)", short)
	}
}

// BenchmarkHistoryHotEntity is the hot-entity counterpart of
// BenchmarkHistoryColdEntity: one entity with ~2k in-memory versions,
// served the way soupsd's /history serves it — collect the version chain,
// then append its trace JSON into a reused buffer.
func BenchmarkHistoryHotEntity(b *testing.B) {
	db := newTestDB(b, Options{Shards: 4})
	defer db.Close()
	key := entity.Key{Type: "Account", ID: "bestseller"}
	for i := 0; i < 2048; i++ {
		var err error
		if i%16 == 0 {
			_, err = db.AppendTentative(key, []entity.Op{entity.Delta("balance", -1).Described("reserve 1 for order")}, stamp(int64(i+1)), "n", fmt.Sprintf("p%d", i))
		} else {
			_, err = db.Append(key, []entity.Op{entity.Delta("balance", 1).Described("restock 1")}, stamp(int64(i+1)), "n", "")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := db.Versions(key)
		if err != nil {
			b.Fatal(err)
		}
		buf = h.AppendTraceJSON(buf[:0])
	}
	b.ReportMetric(float64(len(buf)), "bytes/op")
}
