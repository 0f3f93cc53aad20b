package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// Allocation bound for one fuzz input: decoded records and sparse keys are
// larger than their encoding by a small factor, plus a fixed slack for the
// fixed-size reads and the cursor state. A length field that drove an
// allocation would exceed it by orders of magnitude.
const (
	fuzzAllocPerByte = 16
	fuzzAllocSlack   = 64 << 10
)

// FuzzTable feeds arbitrary bytes to every table decoder: as a whole file
// to init (and, when that validates, to lookup, replay and scan), as an
// index block to nextRaw and as a run of frames to parseFrame — once as
// given and once sealed, with its checksums made valid. Any input must give
// nil or a *CorruptTableError, never a panic, and allocate in proportion to
// its size.
//
//	go test -run '^$' -fuzz FuzzTable -fuzztime 15s ./internal/lsm/
func FuzzTable(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data)
		checkDecoders(t, sealed(data))
	})
}

func checkDecoders(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	typed := func(what string, err error) {
		var ce *CorruptTableError
		if err != nil && err != errNotFound && !errors.As(err, &ce) {
			t.Fatalf("%s: untyped error %T: %v", what, err, err)
		}
	}
	tb := &table{meta: TableMeta{Name: "fuzz.sst"}, f: nopFile{bytes.NewReader(data)}}
	if err := tb.init(int64(len(data))); err != nil {
		typed("init", err)
	} else {
		typed("replay", tb.replay(func(storage.WALRecord) error { return nil }))
		typed("scan", tb.scan(func(indexEntry, storage.WALRecord) error { return nil }))
		cur := indexCursor{b: tb.index}
		var e indexEntry
		for {
			ok, err := cur.next(&e)
			if err != nil || !ok {
				typed("index walk", err)
				break
			}
			_, err = tb.lookupSummary(compositeKey(e.key))
			typed("lookup", err)
		}
	}
	cur := indexCursor{b: data}
	var e indexEntry
	for {
		_, _, ok, err := cur.nextRaw(&e)
		if err != nil || !ok {
			typed("nextRaw", err)
			break
		}
	}
	for pos := 0; pos < len(data); {
		_, n, err := parseFrame(data[pos:])
		if err != nil {
			typed("parseFrame", err)
			break
		}
		pos += n
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fuzzAllocPerByte*len(data)+fuzzAllocSlack) {
		t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
	}
}

// sealed returns a copy of data with the magics and every checksum a table
// reader verifies made valid — the footer, the index frame it points at and
// the run of data frames — so mutations reach the geometry, the index
// entries and the records behind the CRCs.
func sealed(data []byte) []byte {
	b := append([]byte(nil), data...)
	if len(b) < len(sstMagic)+footerSize {
		return b
	}
	copy(b, sstMagic)
	foot := b[len(b)-footerSize:]
	copy(foot[28:], sstFootMag)
	binary.LittleEndian.PutUint32(foot[24:], crc32.ChecksumIEEE(foot[:24]))
	indexOff, indexLen := binary.LittleEndian.Uint64(foot), binary.LittleEndian.Uint64(foot[8:])
	end := uint64(len(b) - footerSize)
	if indexOff < uint64(len(sstMagic)) || indexOff > end || indexLen > end-indexOff || indexLen < frameHeader {
		return b
	}
	frame := b[indexOff : indexOff+indexLen]
	binary.LittleEndian.PutUint32(frame, uint32(indexLen-frameHeader))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeader:]))
	for off := uint64(len(sstMagic)); off+frameHeader <= indexOff; {
		n := uint64(binary.LittleEndian.Uint32(b[off:]))
		if n > indexOff-off-frameHeader {
			break
		}
		binary.LittleEndian.PutUint32(b[off+4:], crc32.ChecksumIEEE(b[off+frameHeader:off+frameHeader+n]))
		off += frameHeader + n
	}
	return b
}

// fuzzSeeds are the inputs of the table tests: intact tables with and
// without detail, the junk an orphan sweep quarantines, a truncation, a
// flipped bit in the index, a footer whose geometry wraps and an index entry
// pointing past the data block, plus a bare index block and a bare run of
// frames.
func fuzzSeeds(f *testing.F) [][]byte {
	dir := f.TempDir()
	read := func(meta TableMeta) []byte {
		b, err := os.ReadFile(filepath.Join(dir, meta.Name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	summaries := read(writeTable(f, dir, 1, groupedRecs(20, 0)))
	withDetail := read(writeTable(f, dir, 2, groupedRecs(20, 3)))
	seeds := [][]byte{nil, []byte("junk"), summaries, withDetail, withDetail[:len(withDetail)/2]}

	flipped := append([]byte(nil), withDetail...)
	flipped[len(flipped)-footerSize-3] ^= 0x10
	seeds = append(seeds, flipped)

	// Footer offsets whose sum matches the file only by wrapping: the index
	// length is negative as an int64. The sealed pass makes its CRC valid.
	wrapped := append([]byte(nil), withDetail...)
	foot := wrapped[len(wrapped)-footerSize:]
	binary.LittleEndian.PutUint64(foot, uint64(len(wrapped)-footerSize+16))
	binary.LittleEndian.PutUint64(foot[8:], ^uint64(15)) // -16
	seeds = append(seeds, wrapped)

	meta := writeTable(f, dir, 3, groupedRecs(20, 3))
	rewriteIndex(f, filepath.Join(dir, meta.Name), func(e *indexEntry, indexOff, _ int64) {
		if e.key == testKey(5) {
			e.dataOff = indexOff - 4
		}
	})
	seeds = append(seeds, read(meta))

	tb := &table{f: nopFile{bytes.NewReader(withDetail)}}
	if err := tb.init(int64(len(withDetail))); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, tb.index, withDetail[len(sstMagic):tb.indexOff])
	return seeds
}
