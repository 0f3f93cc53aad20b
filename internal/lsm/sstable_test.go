package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/storage"
)

// writeTable writes recs (key-grouped, in writer order) as table seq in dir.
func writeTable(t testing.TB, dir string, seq uint64, recs []storage.WALRecord) TableMeta {
	t.Helper()
	w, err := newTableWriter(dir, tableName(seq))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.add(&recs[i]); err != nil {
			w.abort()
			t.Fatal(err)
		}
	}
	meta, err := w.finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	meta.Level, meta.Seq = 0, seq
	return meta
}

// groupedRecs builds keys key groups: every key has a summary and key i
// carries i%detailEvery detail records (none when detailEvery is 0).
func groupedRecs(keys, detailEvery int) []storage.WALRecord {
	var recs []storage.WALRecord
	for i := 0; i < keys; i++ {
		k := testKey(i)
		recs = append(recs, summaryRec(k, uint64(10*i+1), float64(i)))
		for j := 0; detailEvery > 0 && j < i%detailEvery; j++ {
			recs = append(recs, detailRec(k, uint64(10*i+2+j), j == 0, false))
		}
	}
	return recs
}

// countingFile counts the reads a table issues.
type countingFile struct {
	tableFile
	reads int
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.tableFile.ReadAt(p, off)
}

// TestCompareRawMatchesCompositeOrder: comparing an entry's raw type and id
// against a composite key orders exactly like comparing the two composites,
// including NUL-adjacent bytes and prefix relations.
func TestCompareRawMatchesCompositeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0, 1, 'A', 'a', 'b', 0xff}
	word := func() string {
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 20000; i++ {
		typ, id := word(), word()
		ck := word()
		if rng.Intn(2) == 0 {
			ck = compositeKey(entity.Key{Type: word(), ID: word()})
		}
		want := strings.Compare(compositeKey(entity.Key{Type: typ, ID: id}), ck)
		if got := sign(compareRaw([]byte(typ), []byte(id), ck)); got != want {
			t.Fatalf("compareRaw(%q, %q, %q) = %d, want %d", typ, id, ck, got, want)
		}
	}
}

// TestFindEntryAllocatesNothing gates the in-memory index scan: a miss
// (before, between and after the table's keys) and a hit allocate nothing.
func TestFindEntryAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	tb, err := openTable(dir, writeTable(t, dir, 1, groupedRecs(100, 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	for _, id := range []string{"a", "a050x", "a099x", "b"} {
		ck := compositeKey(entity.Key{Type: "Account", ID: id})
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := tb.findEntry(ck); err != errNotFound {
				t.Fatalf("findEntry(%q) = %v, want errNotFound", id, err)
			}
		}); allocs != 0 {
			t.Fatalf("findEntry miss %q: %v allocations, want 0", id, allocs)
		}
	}
	want := testKey(57)
	hit := compositeKey(want)
	if allocs := testing.AllocsPerRun(100, func() {
		if e, err := tb.findEntry(hit); err != nil || e.key != want {
			t.Fatalf("findEntry hit = %+v, %v", e, err)
		}
	}); allocs != 0 {
		t.Fatalf("findEntry hit: %v allocations, want 0", allocs)
	}
}

// TestOneReadPerKeyGroup: replaying a summary-only table reads no data at
// all; with detail, replay reads each detail-carrying key group once; a
// lookup reads once; a compaction reads each input group once.
func TestOneReadPerKeyGroup(t *testing.T) {
	dir := t.TempDir()
	const keys = 40
	for _, tc := range []struct {
		name        string
		detailEvery int
		wantReads   int // key groups holding detail: key i has i%3 records
	}{
		{"summary-only", 0, 0},
		{"with-detail", 3, keys - (keys+2)/3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := openTable(dir, writeTable(t, dir, uint64(1+tc.detailEvery), groupedRecs(keys, tc.detailEvery)))
			if err != nil {
				t.Fatal(err)
			}
			defer tb.close()
			cf := &countingFile{tableFile: tb.f}
			tb.f = cf
			pointers := 0
			if err := tb.replay(func(rec storage.WALRecord) error {
				if rec.Kind == storage.KindSummary {
					pointers++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if pointers != keys || cf.reads != tc.wantReads {
				t.Fatalf("replay: %d pointers with %d reads, want %d with %d", pointers, cf.reads, keys, tc.wantReads)
			}
			cf.reads = 0
			if _, err := tb.lookupSummary(compositeKey(testKey(29))); err != nil || cf.reads != 1 {
				t.Fatalf("lookup: %v with %d reads, want 1 read", err, cf.reads)
			}
		})
	}

	s := openTestStore(t, t.TempDir(), Options{CompactAfter: 100})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if err := s.FlushTable(groupedRecs(keys, 3), uint64(10*keys), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	var counters []*countingFile
	for _, tb := range s.tables {
		cf := &countingFile{tableFile: tb.f}
		tb.f = cf
		counters = append(counters, cf)
	}
	s.mu.Unlock()
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for i, cf := range counters {
		if cf.reads != keys {
			t.Fatalf("compaction input %d: %d reads, want one per key group (%d)", i, cf.reads, keys)
		}
	}
}

// rewriteIndex rewrites the index block of the table file at path, letting
// edit change each entry, with valid CRCs and footer: only the entries lie.
func rewriteIndex(t testing.TB, path string, edit func(e *indexEntry, indexOff, fileSize int64)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tb := &table{f: nopFile{bytes.NewReader(data)}}
	if err := tb.init(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	var index []byte
	cur := indexCursor{b: tb.index}
	var e indexEntry
	for {
		ok, err := cur.next(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		edit(&e, tb.indexOff, int64(len(data)))
		index = appendIndexEntry(index, &e)
	}
	out := append([]byte(nil), data[:tb.indexOff]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(index)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(index))
	out = append(out, index...)
	footer := binary.LittleEndian.AppendUint64(nil, uint64(tb.indexOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(frameHeader+len(index)))
	footer = binary.LittleEndian.AppendUint64(footer, tb.count)
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer))
	out = append(append(out, footer...), sstFootMag...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// nopFile serves table bytes from memory.
type nopFile struct{ io.ReaderAt }

func (nopFile) Close() error { return nil }

// TestIndexEntryOutsideDataBlockIsTypedError: an index entry (under a valid
// index CRC) whose data range runs into the index block or the footer makes
// lookup, replay and compaction each fail with *CorruptTableError — never a
// read past the data block or an allocation sized by the lie.
func TestIndexEntryOutsideDataBlockIsTypedError(t *testing.T) {
	victim := testKey(5) // carries detail, so replay must read its group
	for _, tc := range []struct {
		name string
		edit func(e *indexEntry, indexOff, fileSize int64)
	}{
		{"past-indexOff", func(e *indexEntry, indexOff, _ int64) { e.dataOff = indexOff - 4 }},
		{"into-footer", func(e *indexEntry, _, fileSize int64) { e.dataOff = fileSize - footerSize + 4 }},
		{"huge-length", func(e *indexEntry, _, _ int64) { e.dataLen = 1 << 62 }},
		{"negative-offset", func(e *indexEntry, _, _ int64) { e.dataOff = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, Options{CompactAfter: 100})
			if err := s.FlushTable(groupedRecs(20, 3), 200, 0); err != nil {
				t.Fatal(err)
			}
			name := s.tables[0].meta.Name
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			rewriteIndex(t, filepath.Join(dir, "sst", name), func(e *indexEntry, indexOff, size int64) {
				if e.key == victim {
					tc.edit(e, indexOff, size)
				}
			})
			s = openTestStore(t, dir, Options{CompactAfter: 100})
			defer s.Close()
			var ce *CorruptTableError
			if _, err := s.LookupSummary(victim); !errors.As(err, &ce) || ce.Table != name {
				t.Fatalf("lookup: %v, want *CorruptTableError naming %s", err, name)
			}
			if _, err := s.Replay(func(storage.WALRecord) error { return nil }); !errors.As(err, &ce) {
				t.Fatalf("replay: %v, want *CorruptTableError", err)
			}
			if err := s.CompactNow(); !errors.As(err, &ce) {
				t.Fatalf("compaction: %v, want *CorruptTableError", err)
			}
			if rec, err := s.LookupSummary(testKey(6)); err != nil || rec == nil {
				t.Fatalf("an intact key of the table stopped reading: %v, %v", rec, err)
			}
		})
	}
}

// TestOpenCompactsBacklogLeftAtClose: a level-0 backlog a store closed with
// is merged after reopen without any new write.
func TestOpenCompactsBacklogLeftAtClose(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: 100})
	for i := 0; i < 5; i++ {
		if err := s.FlushTable([]storage.WALRecord{summaryRec(testKey(i), uint64(i+1), float64(i))}, uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTestStore(t, dir, Options{CompactAfter: 4})
	defer s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for st := s.TieredStats(); st.CompactionBacklog != 0 || st.L0Tables != 0; st = s.TieredStats() {
		if time.Now().After(deadline) {
			t.Fatalf("backlog left at Close not compacted after reopen: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if rec, err := s.LookupSummary(testKey(i)); err != nil || rec == nil {
			t.Fatalf("key %d after the reopen compaction: %v, %v", i, rec, err)
		}
	}
}
