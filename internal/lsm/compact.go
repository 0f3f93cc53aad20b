// Background compaction: merge every level-0 table plus the existing
// level-1 run into a fresh level-1 run.
//
// Merge rules, per key across the inputs:
//
//   - The newest summary wins (highest table Seq among inputs holding one);
//     older summaries for the key are dropped — they are strict prefixes of
//     the winner's rollup.
//   - Detail records at or below the winning summary's horizon are dropped:
//     the summary already folds them in. Detail above the horizon is
//     retained (live tentative promises and recent settled records the next
//     flush's summary has not yet covered), deduplicated by LSN across
//     overlapping tables.
//   - Obsolete detail (withdrawn promises, flagged by a MarkObsolete that
//     reached a later flush) is eliminated outright — this is where
//     tombstones die, mirroring what Compact does to the in-memory index.
//
// The compactor yields while a flush's foreground fsync is active and
// sleeps CompactThrottle between merge batches, so background merging never
// monopolises the disk against the commit path.
package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/storage"
)

// compactorLoop waits for flush signals and drains the level-0 backlog.
func (s *Store) compactorLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.compactCh:
			for {
				s.mu.Lock()
				due := !s.closed && s.l0CountLocked() >= s.opts.CompactAfter
				s.mu.Unlock()
				if !due {
					break
				}
				if err := s.CompactNow(); err != nil {
					break // counted; wait for the next flush to retrigger
				}
			}
		}
	}
}

// mergeIter walks one input table's in-memory index key-group by key-group.
type mergeIter struct {
	t   *table
	cur indexCursor
	e   indexEntry
	ck  string // composite key of e
	ok  bool
}

func newMergeIter(t *table) (*mergeIter, error) {
	it := &mergeIter{t: t, cur: indexCursor{b: t.index}}
	return it, it.advance()
}

func (it *mergeIter) advance() error {
	ok, err := it.cur.next(&it.e)
	if err != nil {
		return it.t.indexErr(err)
	}
	it.ok = ok
	if ok {
		it.ck = compositeKey(it.e.key)
	}
	return nil
}

// CompactNow runs one compaction pass synchronously: all current level-0
// tables plus the level-1 run merge into a new level-1 run. It is a no-op
// when there is nothing at level 0. Exported for tests and tooling; the
// background loop calls it on the flush trigger.
func (s *Store) CompactNow() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	fail := func(err error) error {
		s.compactFailures.Add(1)
		return err
	}
	if h := s.opts.Hooks; h != nil && h.CompactErr != nil {
		if err := h.CompactErr(); err != nil {
			return fail(fmt.Errorf("lsm: compact: %w", err))
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrClosed
	}
	var inputs []*table
	for _, t := range s.tables {
		if t.meta.Level <= 1 {
			inputs = append(inputs, t)
		}
	}
	l0 := s.l0CountLocked()
	s.mu.Unlock()
	if l0 == 0 {
		return nil
	}
	seq := s.nextSeq.Add(1) - 1
	out, err := s.mergeTables(inputs, seq)
	if err != nil {
		return fail(err)
	}
	if err := s.runBreakpoint("compact:pre-manifest"); err != nil {
		// Simulated crash after the output table landed but before the
		// manifest names it: the orphan sweep reclaims it on the next open.
		return fail(err)
	}
	t, err := openTable(s.opts.Dir, out)
	if err != nil {
		return fail(err)
	}
	dead := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		dead[in.meta.Name] = true
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		t.close()
		return storage.ErrClosed
	}
	man := s.man
	man.Seq++
	man.NextTable = s.nextSeq.Load()
	var keep []TableMeta
	for _, m := range s.man.Tables {
		if !dead[m.Name] {
			keep = append(keep, m)
		}
	}
	man.Tables = append(keep, out)
	sortTables(man.Tables)
	if out.Watermark > man.Watermark {
		man.Watermark = out.Watermark
	}
	if err := installManifest(s.opts.Dir, man); err != nil {
		s.mu.Unlock()
		t.close()
		return fail(err)
	}
	s.man = man
	var live []*table
	for _, old := range s.tables {
		if !dead[old.meta.Name] {
			live = append(live, old)
		}
	}
	s.tables = insertTable(live, t)
	s.mu.Unlock()
	s.compactions.Add(1)
	if err := s.runBreakpoint("compact:pre-delete"); err != nil {
		// Manifest already superseded the inputs; leftover files are swept as
		// orphans on the next open.
		return nil
	}
	s.removeInputs(inputs)
	return nil
}

// removeInputs deletes superseded table files. The *os.File handles stay
// open: an in-flight cold read may still hold a snapshot of the old table
// slice, and on POSIX an unlinked open file reads fine until the last
// reference drops (the runtime's file finalizers reclaim the descriptors).
func (s *Store) removeInputs(inputs []*table) {
	for _, in := range inputs {
		os.Remove(filepath.Join(s.opts.Dir, in.meta.Name))
		os.Remove(filepath.Join(s.opts.Dir, bloomName(in.meta.Name)))
	}
	syncDir(s.opts.Dir)
}

// mergeTables k-way merges the inputs into one new level-1 table.
func (s *Store) mergeTables(inputs []*table, seq uint64) (TableMeta, error) {
	iters := make([]*mergeIter, 0, len(inputs))
	for _, in := range inputs {
		it, err := newMergeIter(in)
		if err != nil {
			return TableMeta{}, err
		}
		if it.ok {
			iters = append(iters, it)
		}
	}
	w, err := newTableWriter(s.opts.Dir, tableName(seq))
	if err != nil {
		return TableMeta{}, err
	}
	var watermark uint64
	for _, in := range inputs {
		if in.meta.Watermark > watermark {
			watermark = in.meta.Watermark
		}
	}
	var batch int
	for len(iters) > 0 {
		// Smallest key across the iterators; participants are every iterator
		// positioned on it.
		minKey := ""
		for _, it := range iters {
			if minKey == "" || it.ck < minKey {
				minKey = it.ck
			}
		}
		var parts []*mergeIter
		for _, it := range iters {
			if it.ck == minKey {
				parts = append(parts, it)
			}
		}
		if err := s.mergeKey(w, parts); err != nil {
			w.abort()
			return TableMeta{}, err
		}
		// Advance the participants; drop exhausted iterators.
		liveIters := iters[:0]
		for _, it := range iters {
			if it.ck == minKey {
				if err := it.advance(); err != nil {
					w.abort()
					return TableMeta{}, err
				}
			}
			if it.ok {
				liveIters = append(liveIters, it)
			}
		}
		iters = liveIters
		if batch++; batch%64 == 0 {
			s.yieldToFlush()
		}
	}
	meta, err := w.finish(s.breakpoint("compact:pre-rename"))
	if err != nil {
		return TableMeta{}, err
	}
	meta.Level, meta.Seq = 1, seq
	if watermark > meta.Watermark {
		meta.Watermark = watermark
	}
	return meta, nil
}

// mergeKey writes one key's merged records: the winning summary, then the
// surviving detail. Each participant's key group is read once.
func (s *Store) mergeKey(w *tableWriter, parts []*mergeIter) error {
	// Winner: newest input table holding a summary for the key.
	var winner *mergeIter
	for _, p := range parts {
		if p.e.flags&entryHasSummary == 0 {
			continue
		}
		if winner == nil || p.t.meta.Seq > winner.t.meta.Seq {
			winner = p
		}
	}
	// Surviving detail: above the winning horizon, not obsolete, one copy
	// per LSN. An LSN's copies can disagree across tables — only the table
	// whose flush saw the MarkObsolete carries the flag, an older table holds
	// the pre-mark live copy — so obsolescence is collected across every part
	// first and applied to whichever copy was kept. Keying the decision on
	// iteration order instead would let the older live copy resurrect a
	// withdrawn promise whose covering WAL mark has already been pruned.
	var horizon uint64
	if winner != nil {
		horizon = winner.e.horizon
	}
	var summary *storage.WALRecord
	var details []storage.WALRecord
	seen := map[uint64]bool{}
	obsolete := map[uint64]bool{}
	for _, p := range parts {
		b, err := p.t.region(p.e.dataOff, p.e.dataLen)
		if err != nil {
			return err
		}
		pos := 0
		if p.e.flags&entryHasSummary != 0 {
			if p == winner {
				rec, n, err := p.t.groupSummary(b, p.e.dataOff)
				if err != nil {
					return err
				}
				summary, pos = &rec, n
			} else if pos, err = frameLen(b); err != nil { // superseded: skip undecoded
				return p.t.placed(err, p.e.dataOff)
			}
		}
		for pos < len(b) {
			rec, n, err := parseFrame(b[pos:])
			if err != nil {
				return p.t.placed(err, p.e.dataOff+int64(pos))
			}
			pos += n
			if rec.Kind != storage.KindAppend || rec.LSN <= horizon {
				continue
			}
			if rec.Obsolete {
				obsolete[rec.LSN] = true
				continue
			}
			if seen[rec.LSN] {
				continue
			}
			seen[rec.LSN] = true
			details = append(details, rec)
		}
	}
	if summary != nil {
		if err := w.add(summary); err != nil {
			return err
		}
	}
	live := details[:0]
	for i := range details {
		if !obsolete[details[i].LSN] {
			live = append(live, details[i])
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].LSN < live[b].LSN })
	for i := range live {
		if err := w.add(&live[i]); err != nil {
			return err
		}
	}
	return nil
}

// yieldToFlush pauses the merge while a flush is writing and applies the
// configured throttle between batches.
func (s *Store) yieldToFlush() {
	for s.flushActive.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	if s.opts.CompactThrottle > 0 {
		time.Sleep(s.opts.CompactThrottle)
	}
}
