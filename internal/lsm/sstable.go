// Immutable sorted-table files (SSTables).
//
// Layout of sst-%010d.sst:
//
//	8-byte magic "SOUPSST\x01"
//	data block:  CRC frames (uint32 len | uint32 CRC32 | payload), payloads
//	             are storage.EncodeRecord bytes, grouped per key — the key's
//	             settled summary first (KindSummary, Horizon set), then its
//	             detail records (KindAppend) in LSN order
//	index block: one CRC frame whose payload is the per-key index — for each
//	             key (ascending): type, id, flags, horizon, dataOff, dataLen,
//	             detailCount — all length-prefixed / uvarint
//	footer:      uint64 indexOff | uint64 indexLen | uint64 keyCount |
//	             uint32 CRC32 of the previous 24 bytes | 8-byte magic
//	             "SSTFOOT\x01"   (fixed 36 bytes, little-endian)
//
// A table is written to a .tmp name, fsynced, renamed and the directory
// synced — a crash leaves either a complete table or an ignorable temp file.
//
// Open reads and CRC-checks the index block once and keeps it in memory,
// with a sparse index over it (every 16th key plus its offset in the block)
// and the bloom sidecar. Every later use walks that copy, so a key group
// costs at most one read of its data range [dataOff, dataOff+dataLen):
// a lookup scans at most 16 in-memory entries without allocating, then reads
// the summary frame; recovery emits a summary pointer from the index entry
// alone and reads a key's data only when it has detail records; compaction
// reads each input key's group once. region bounds every data read to the
// data block, so a corrupt index entry is a typed error, never a read or an
// allocation past it.
package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/entity"
	"repro/internal/storage"
)

var (
	sstMagic    = []byte("SOUPSST\x01")
	sstFootMag  = []byte("SSTFOOT\x01")
	errNotFound = errors.New("lsm: key not in table")
)

const (
	frameHeader = 8 // uint32 length + uint32 CRC
	footerSize  = 8 + 8 + 8 + 4 + 8
	// sparseEvery is the in-memory index granularity: one retained entry per
	// this many index-block entries.
	sparseEvery = 16
	// entryHasSummary flags an index entry whose first data frame is the
	// key's settled summary; entries without it hold only detail records
	// (a key whose every record is still a live tentative promise).
	entryHasSummary = 1
)

// compositeKey is the sort and comparison form of an entity key: type and id
// joined by a NUL, which sorts below every printable byte so distinct
// (type, id) pairs order consistently and never collide.
func compositeKey(k entity.Key) string { return k.Type + "\x00" + k.ID }

func splitComposite(c string) entity.Key {
	if i := strings.IndexByte(c, 0); i >= 0 {
		return entity.Key{Type: c[:i], ID: c[i+1:]}
	}
	return entity.Key{Type: c}
}

// indexEntry is one parsed index-block entry.
type indexEntry struct {
	key         entity.Key
	flags       uint64
	horizon     uint64
	dataOff     int64
	dataLen     int64
	detailCount uint64
}

func appendIndexEntry(b []byte, e *indexEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.key.Type)))
	b = append(b, e.key.Type...)
	b = binary.AppendUvarint(b, uint64(len(e.key.ID)))
	b = append(b, e.key.ID...)
	b = binary.AppendUvarint(b, e.flags)
	b = binary.AppendUvarint(b, e.horizon)
	b = binary.AppendUvarint(b, uint64(e.dataOff))
	b = binary.AppendUvarint(b, uint64(e.dataLen))
	b = binary.AppendUvarint(b, e.detailCount)
	return b
}

// indexCursor walks index-block entries sequentially.
type indexCursor struct {
	b        []byte
	off      int    // byte offset of the next entry within the block
	lastType string // the previous next's type string, shared by equal types
}

// nextRaw decodes the next entry's numeric fields into e and returns its
// type and id as slices of the block; e.key is left alone, so scanning
// entries allocates nothing. Corruption is a *CorruptTableError at the
// entry's offset within the block.
func (c *indexCursor) nextRaw(e *indexEntry) (typ, id []byte, ok bool, err error) {
	if len(c.b) == 0 {
		return nil, nil, false, nil
	}
	typ, b, okType := lenPrefixed(c.b)
	id, b, okID := lenPrefixed(b)
	ok = okType && okID
	var nums [5]uint64
	for i := 0; ok && i < len(nums); i++ {
		var w int
		if nums[i], w = binary.Uvarint(b); w <= 0 {
			ok = false
		} else {
			b = b[w:]
		}
	}
	if !ok {
		return nil, nil, false, corruptAt(int64(c.off), "corrupt index entry")
	}
	// A range past the int64 domain goes negative here; region rejects it.
	e.flags, e.horizon, e.dataOff, e.dataLen, e.detailCount = nums[0], nums[1], int64(nums[2]), int64(nums[3]), nums[4]
	c.off += len(c.b) - len(b)
	c.b = b
	return typ, id, true, nil
}

// lenPrefixed splits a uvarint-length-prefixed field off the front of b.
func lenPrefixed(b []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < n {
		return nil, nil, false
	}
	end := w + int(n)
	return b[w:end:end], b[end:], true
}

// next is nextRaw with the key copied out of the block into e.key.
func (c *indexCursor) next(e *indexEntry) (bool, error) {
	typ, id, ok, err := c.nextRaw(e)
	if !ok {
		return false, err
	}
	if string(typ) != c.lastType {
		c.lastType = string(typ)
	}
	e.key = entity.Key{Type: c.lastType, ID: string(id)}
	return true, nil
}

// compareRaw orders the entry (typ, id) against the composite key ck exactly
// as compositeKey would, without building the entry's composite.
func compareRaw(typ, id []byte, ck string) int {
	if len(ck) <= len(typ) {
		switch {
		case string(typ[:len(ck)]) < ck:
			return -1
		case string(typ[:len(ck)]) > ck:
			return 1
		}
		return 1 // ck is a proper prefix of typ + "\x00" + id
	}
	switch head := ck[:len(typ)]; {
	case string(typ) < head:
		return -1
	case string(typ) > head:
		return 1
	}
	if ck[len(typ)] != 0 {
		return -1 // the entry's NUL separator sorts below any other byte
	}
	switch rest := ck[len(typ)+1:]; {
	case string(id) < rest:
		return -1
	case string(id) > rest:
		return 1
	}
	return 0
}

// appendFrame wraps an encoded record payload in the WAL's len+CRC framing.
func appendFrame(b []byte, rec *storage.WALRecord) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b, err := storage.EncodeRecord(b, rec)
	if err != nil {
		return nil, err
	}
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// tableWriter streams key-grouped records into a new table file. Records
// must arrive sorted by composite key, each key's summary (if any) first and
// its details in LSN order — the flush capture and the compaction merge both
// produce exactly that order.
type tableWriter struct {
	dir, name string
	tmp       string
	f         *os.File
	bw        *bufio.Writer
	off       int64 // bytes written so far (file offset)
	scratch   []byte
	index     []byte
	keys      []string // composite keys, for the bloom sidecar
	cur       indexEntry
	curKey    string // composite of cur; "" before the first record
	minKey    string
	maxKey    string
	watermark uint64
}

func newTableWriter(dir, name string) (*tableWriter, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	w := &tableWriter{dir: dir, name: name, tmp: tmp, f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	if _, err := w.bw.Write(sstMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: %w", err)
	}
	w.off = int64(len(sstMagic))
	return w, nil
}

func (w *tableWriter) add(rec *storage.WALRecord) error {
	ck := compositeKey(rec.Key)
	if ck != w.curKey {
		if w.curKey != "" && ck <= w.curKey {
			return fmt.Errorf("lsm: records out of key order (%q after %q)", ck, w.curKey)
		}
		w.flushKey()
		w.curKey = ck
		w.cur = indexEntry{key: rec.Key, dataOff: w.off}
		if w.minKey == "" {
			w.minKey = ck
		}
		w.maxKey = ck
		w.keys = append(w.keys, ck)
	}
	switch rec.Kind {
	case storage.KindSummary:
		if w.cur.flags&entryHasSummary != 0 || w.cur.detailCount > 0 {
			return fmt.Errorf("lsm: summary for %q must be the key's first record", ck)
		}
		w.cur.flags |= entryHasSummary
		w.cur.horizon = rec.Horizon
		if rec.Horizon > w.watermark {
			w.watermark = rec.Horizon
		}
	case storage.KindAppend:
		w.cur.detailCount++
		if rec.LSN > w.watermark {
			w.watermark = rec.LSN
		}
	default:
		return fmt.Errorf("lsm: record kind %d does not belong in a table", rec.Kind)
	}
	var err error
	if w.scratch, err = appendFrame(w.scratch[:0], rec); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.scratch); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	w.off += int64(len(w.scratch))
	return nil
}

func (w *tableWriter) flushKey() {
	if w.curKey == "" {
		return
	}
	w.cur.dataLen = w.off - w.cur.dataOff
	w.index = appendIndexEntry(w.index, &w.cur)
}

// finish writes the index block, footer and bloom sidecar, fsyncs and
// renames the table into place. beforeRename, when non-nil, runs after the
// data is durable in the temp file but before the rename — the crash-test
// hook point for a flush that died mid-install.
func (w *tableWriter) finish(beforeRename func() error) (TableMeta, error) {
	w.flushKey()
	indexOff := w.off
	frame := make([]byte, frameHeader, frameHeader+len(w.index))
	binary.LittleEndian.PutUint32(frame, uint32(len(w.index)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(w.index))
	frame = append(frame, w.index...)
	if _, err := w.bw.Write(frame); err != nil {
		w.abort()
		return TableMeta{}, fmt.Errorf("lsm: %w", err)
	}
	w.off += int64(len(frame))
	footer := make([]byte, 0, footerSize)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(indexOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(frame)))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(w.keys)))
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer))
	footer = append(footer, sstFootMag...)
	if _, err := w.bw.Write(footer); err != nil {
		w.abort()
		return TableMeta{}, fmt.Errorf("lsm: %w", err)
	}
	w.off += int64(len(footer))
	if err := w.bw.Flush(); err != nil {
		w.abort()
		return TableMeta{}, fmt.Errorf("lsm: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return TableMeta{}, fmt.Errorf("lsm: %w", err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return TableMeta{}, fmt.Errorf("lsm: %w", err)
	}
	w.f = nil
	// The bloom sidecar is advisory (rebuilt if missing), so it needs no
	// fsync ceremony — but write it before the rename so a completed table
	// normally has its filter ready.
	bl := newBloom(len(w.keys))
	for _, k := range w.keys {
		bl.add(k)
	}
	blmPath := filepath.Join(w.dir, bloomName(w.name))
	os.WriteFile(blmPath, bl.marshal(), 0o644)
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			os.Remove(w.tmp)
			os.Remove(blmPath)
			return TableMeta{}, err
		}
	}
	if err := os.Rename(w.tmp, filepath.Join(w.dir, w.name)); err != nil {
		os.Remove(w.tmp)
		return TableMeta{}, fmt.Errorf("lsm: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return TableMeta{}, err
	}
	return TableMeta{
		Name:      w.name,
		MinKey:    w.minKey,
		MaxKey:    w.maxKey,
		Keys:      uint64(len(w.keys)),
		Bytes:     w.off,
		Watermark: w.watermark,
	}, nil
}

func (w *tableWriter) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}

// bloomName maps sst-0000000007.sst to sst-0000000007.blm.
func bloomName(table string) string { return strings.TrimSuffix(table, ".sst") + ".blm" }

// CorruptTableError reports table bytes that fail validation: a bad magic or
// footer, an index or data frame whose length or CRC does not check, an
// undecodable entry or record, or an index entry whose data range leaves the
// data block.
type CorruptTableError struct {
	Table  string // table file name; empty when a bare buffer was checked
	Offset int64  // file offset (buffer offset without a table) of the bad bytes
	Reason string
}

func (e *CorruptTableError) Error() string {
	return fmt.Sprintf("lsm: corrupt table: %s at %s+%d", e.Reason, e.Table, e.Offset)
}

func corruptAt(off int64, reason string) error {
	return &CorruptTableError{Offset: off, Reason: reason}
}

// tableFile is a table's read handle. *os.File satisfies it; tests wrap it
// to count reads.
type tableFile interface {
	io.ReaderAt
	io.Closer
}

// table is one open, immutable SSTable: a read-only file handle, the
// verified index block, the sparse index over it and the bloom filter.
type table struct {
	meta     TableMeta
	f        tableFile
	indexOff int64  // file offset of the index frame; the data block ends here
	count    uint64 // index entries, as the footer states and open verified
	index    []byte // CRC-checked index payload
	sparse   []sparseSlot
	bloom    *bloomFilter
}

// sparseSlot anchors a run of sparseEvery index entries: the composite key
// of the run's first entry and its byte offset within the index payload.
type sparseSlot struct {
	key string
	off int
}

// openTable validates the footer and index block, keeps the index and its
// sparse index in memory and loads (or rebuilds) the bloom sidecar.
func openTable(dir string, meta TableMeta) (*table, error) {
	path := filepath.Join(dir, meta.Name)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	t := &table{meta: meta, f: f}
	info, err := f.Stat()
	if err == nil {
		err = t.init(info.Size())
	}
	if err != nil {
		f.Close()
		return nil, t.placed(err, 0)
	}
	t.loadBloom(dir)
	return t, nil
}

// init validates a table of size bytes read through t.f: magic, footer,
// index frame and every index entry. It keeps the index payload and builds
// the sparse index; every allocation is bounded by size.
func (t *table) init(size int64) error {
	if size < int64(len(sstMagic))+footerSize {
		return corruptAt(0, "table truncated")
	}
	head := make([]byte, len(sstMagic))
	if _, err := t.f.ReadAt(head, 0); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if !bytes.Equal(head, sstMagic) {
		return corruptAt(0, "bad magic")
	}
	footer := make([]byte, footerSize)
	footOff := size - footerSize
	if _, err := t.f.ReadAt(footer, footOff); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if !bytes.Equal(footer[28:], sstFootMag) {
		return corruptAt(footOff, "bad footer magic")
	}
	if crc32.ChecksumIEEE(footer[:24]) != binary.LittleEndian.Uint32(footer[24:28]) {
		return corruptAt(footOff, "footer CRC mismatch")
	}
	indexOff := binary.LittleEndian.Uint64(footer)
	indexLen := binary.LittleEndian.Uint64(footer[8:])
	t.count = binary.LittleEndian.Uint64(footer[16:])
	// Unsigned checks first, so no sum below can overflow.
	if indexOff < uint64(len(sstMagic)) || indexOff > uint64(footOff) ||
		indexLen != uint64(footOff)-indexOff || indexLen < frameHeader {
		return corruptAt(footOff, "footer geometry out of range")
	}
	t.indexOff = int64(indexOff)
	frame := make([]byte, indexLen)
	if _, err := t.f.ReadAt(frame, t.indexOff); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if uint64(binary.LittleEndian.Uint32(frame))+frameHeader != indexLen {
		return corruptAt(t.indexOff, "index frame length mismatch")
	}
	payload := frame[frameHeader:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
		return corruptAt(t.indexOff, "index CRC mismatch")
	}
	cur := indexCursor{b: payload}
	var e indexEntry
	var i uint64
	for {
		off := cur.off
		typ, id, ok, err := cur.nextRaw(&e)
		if err != nil {
			return t.indexErr(err)
		}
		if !ok {
			break
		}
		if i%sparseEvery == 0 {
			t.sparse = append(t.sparse, sparseSlot{key: string(typ) + "\x00" + string(id), off: off})
		}
		i++
	}
	if i != t.count {
		return corruptAt(footOff, fmt.Sprintf("index holds %d entries, footer says %d", i, t.count))
	}
	t.index = payload
	return nil
}

// loadBloom loads the bloom sidecar, or rebuilds it from the verified index
// and rewrites it for the next open when it is missing or damaged.
func (t *table) loadBloom(dir string) {
	path := filepath.Join(dir, bloomName(t.meta.Name))
	if bl, err := loadBloom(path); err == nil {
		t.bloom = bl
		return
	}
	bl := newBloom(int(t.count))
	cur := indexCursor{b: t.index}
	var e indexEntry
	for {
		typ, id, ok, err := cur.nextRaw(&e)
		if err != nil || !ok {
			break
		}
		bl.add(string(typ) + "\x00" + string(id))
	}
	t.bloom = bl
	os.WriteFile(path, bl.marshal(), 0o644)
}

// placed names the table in a decoder's corruption error and moves its
// offset, relative to a buffer that starts at file offset base, to the file.
func (t *table) placed(err error, base int64) error {
	var ce *CorruptTableError
	if !errors.As(err, &ce) {
		return err
	}
	c := *ce
	c.Table = t.meta.Name
	c.Offset += base
	return &c
}

// indexErr places an index cursor's error, whose offset is within the
// index payload.
func (t *table) indexErr(err error) error { return t.placed(err, t.indexOff+frameHeader) }

func (t *table) close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// findEntry locates key's index entry: a binary search of the sparse index,
// then a scan of at most sparseEvery in-memory entries comparing keys in
// place. It allocates nothing — the returned entry's key is sliced from ck.
// Returns errNotFound for an absent key.
func (t *table) findEntry(ck string) (indexEntry, error) {
	if len(t.sparse) == 0 || ck < t.sparse[0].key {
		return indexEntry{}, errNotFound
	}
	// Greatest sparse slot whose first key <= ck.
	lo, hi := 0, len(t.sparse)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.sparse[mid].key <= ck {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	slot := t.sparse[lo-1]
	end := len(t.index)
	if lo < len(t.sparse) {
		end = t.sparse[lo].off
	}
	cur := indexCursor{b: t.index[slot.off:end], off: slot.off}
	var e indexEntry
	for {
		typ, id, ok, err := cur.nextRaw(&e)
		if err != nil {
			return indexEntry{}, t.indexErr(err)
		}
		if !ok {
			return indexEntry{}, errNotFound
		}
		switch c := compareRaw(typ, id, ck); {
		case c == 0:
			e.key = splitComposite(ck)
			return e, nil
		case c > 0:
			return indexEntry{}, errNotFound
		}
	}
}

// region reads the n bytes of the data block at off in one ReadAt. A range
// outside the data block [len(sstMagic), indexOff) is corruption: an index
// entry pointing there must never become a read or an allocation past it.
func (t *table) region(off, n int64) ([]byte, error) {
	if off < int64(len(sstMagic)) || off > t.indexOff || n < 0 || n > t.indexOff-off {
		return nil, &CorruptTableError{Table: t.meta.Name, Offset: off,
			Reason: fmt.Sprintf("data range of %d bytes outside the data block [%d, %d)", n, len(sstMagic), t.indexOff)}
	}
	b := make([]byte, n)
	if _, err := t.f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	return b, nil
}

// frameLen returns the length of the CRC frame at the start of b, header
// included, checking that it fits in b.
func frameLen(b []byte) (int, error) {
	if len(b) < frameHeader {
		return 0, corruptAt(0, "truncated frame header")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-frameHeader) {
		return 0, corruptAt(0, fmt.Sprintf("frame length %d runs past its key's data", n))
	}
	return frameHeader + int(n), nil
}

// parseFrame checks the CRC of the frame at the start of b and decodes its
// record. It returns the record and the frame's length.
func parseFrame(b []byte) (storage.WALRecord, int, error) {
	n, err := frameLen(b)
	if err != nil {
		return storage.WALRecord{}, 0, err
	}
	payload := b[frameHeader:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return storage.WALRecord{}, 0, corruptAt(0, "data CRC mismatch")
	}
	rec, err := storage.DecodeRecord(payload)
	if err != nil {
		return storage.WALRecord{}, 0, corruptAt(0, err.Error())
	}
	return rec, n, nil
}

// lookupSummary returns the settled summary record of the key with
// composite ck, errNotFound when the table holds no summary for it (absent
// key or detail-only entry). It costs one read, of the key's group.
func (t *table) lookupSummary(ck string) (storage.WALRecord, error) {
	e, err := t.findEntry(ck)
	if err != nil {
		return storage.WALRecord{}, err
	}
	if e.flags&entryHasSummary == 0 {
		return storage.WALRecord{}, errNotFound
	}
	// The index does not record where the summary frame ends, so read the
	// key's whole group; the summary is its first frame.
	b, err := t.region(e.dataOff, e.dataLen)
	if err != nil {
		return storage.WALRecord{}, err
	}
	rec, _, err := t.groupSummary(b, e.dataOff)
	return rec, err
}

// groupSummary decodes the summary frame that opens the key group b, read
// at file offset off, and returns it with the frame's length.
func (t *table) groupSummary(b []byte, off int64) (storage.WALRecord, int, error) {
	rec, n, err := parseFrame(b)
	if err == nil && rec.Kind != storage.KindSummary {
		err = corruptAt(0, "key group does not start with its summary")
	}
	if err != nil {
		return storage.WALRecord{}, 0, t.placed(err, off)
	}
	return rec, n, nil
}

// replay streams the table's recovery view: per key a light summary pointer
// (KindSummary with Horizon but a nil Summary state — the payload stays on
// disk until a cold read warms it) and every detail record in full. The
// pointer comes from the index entry alone; a key's data is read, in one
// read, only when it has detail records.
func (t *table) replay(fn func(storage.WALRecord) error) error {
	cur := indexCursor{b: t.index}
	var e indexEntry
	for {
		ok, err := cur.next(&e)
		if err != nil {
			return t.indexErr(err)
		}
		if !ok {
			return nil
		}
		hasSummary := e.flags&entryHasSummary != 0
		if hasSummary {
			if err := fn(storage.WALRecord{Kind: storage.KindSummary, Key: e.key, Horizon: e.horizon}); err != nil {
				return err
			}
		}
		if e.detailCount == 0 {
			continue
		}
		b, err := t.region(e.dataOff, e.dataLen)
		if err != nil {
			return err
		}
		pos := 0
		if hasSummary {
			// Skip the summary frame without decoding its payload.
			if pos, err = frameLen(b); err != nil {
				return t.placed(err, e.dataOff)
			}
		}
		for i := uint64(0); i < e.detailCount; i++ {
			rec, n, err := parseFrame(b[pos:])
			if err != nil {
				return t.placed(err, e.dataOff+int64(pos))
			}
			if err := fn(rec); err != nil {
				return err
			}
			pos += n
		}
	}
}

// scan streams every record in the table in key order, one read per key.
func (t *table) scan(fn func(e indexEntry, rec storage.WALRecord) error) error {
	cur := indexCursor{b: t.index}
	var e indexEntry
	for {
		ok, err := cur.next(&e)
		if err != nil {
			return t.indexErr(err)
		}
		if !ok {
			return nil
		}
		b, err := t.region(e.dataOff, e.dataLen)
		if err != nil {
			return err
		}
		for pos := 0; pos < len(b); {
			rec, n, err := parseFrame(b[pos:])
			if err != nil {
				return t.placed(err, e.dataOff+int64(pos))
			}
			if err := fn(e, rec); err != nil {
				return err
			}
			pos += n
		}
	}
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	return nil
}
