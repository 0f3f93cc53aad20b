package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
)

// Allocation bound for one fuzz input: a decoded record is larger than its
// encoding by a small factor (an op struct or a map entry per few bytes),
// plus a fixed slack. A count field that drove an allocation past what the
// remaining bytes can hold would exceed it by orders of magnitude.
const (
	fuzzAllocPerByte = 64
	fuzzAllocSlack   = 64 << 10
)

// FuzzDecodeRecord feeds arbitrary bytes to DecodeRecord, the decoder behind
// every WAL frame, checkpoint and replicated record. Any input must decode or
// give a *codecError, never a panic, and allocate in proportion to its size;
// whatever decodes must encode again.
//
//	go test -run '^$' -fuzz FuzzDecodeRecord -fuzztime 10s ./internal/storage/
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range codecFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := DecodeRecord(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fuzzAllocPerByte*len(data)+fuzzAllocSlack) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			var ce *codecError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if _, err := EncodeRecord(nil, &rec); err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
	})
}

// codecFuzzSeeds are the inputs of the codec and torn-write tests: one
// encoded record of every kind (the append's Confirm op names a txn), every
// truncation of the append, the WAL frame payloads the torn-write matrix
// writes, and the same payloads with the byte the corruption test flips.
func codecFuzzSeeds(f *testing.F) [][]byte {
	st := entity.NewState(entity.Key{Type: "Order", ID: "O-7"})
	st.Fields["status"] = "SHIPPED"
	st.Fields["count"] = int64(1) << 60
	st.Tentative = true
	st.RestoreChildren("lineitems", []entity.Child{{ID: "L1", Fields: entity.Fields{"qty": int64(2)}}, {ID: "L2", Fields: entity.Fields{"qty": int64(5)}, Deleted: true}})
	st.Freeze()
	recs := []WALRecord{
		{
			LSN: 42, Key: entity.Key{Type: "Book", ID: "bestseller"},
			Ops: []entity.Op{
				entity.Confirm("txn-7"),
				entity.Delta("stock", -1).Described("reserved"),
				entity.InsertChild("holds", "H1", entity.Fields{
					"qty": int64(3), "nested": entity.Fields{"deep": 1.5}, "list": []interface{}{int64(1), "two", nil, true},
				}),
				{Kind: entity.OpSet, Field: "big", Value: ^uint64(0)},
			},
			Stamp: clock.Timestamp{WallNanos: 123456789, Logical: 7, Node: "n1"}, Origin: "n1",
			TxnID: "txn-9", Tentative: true, Obsolete: true,
		},
		{Kind: KindObsolete, Key: entity.Key{Type: "Book", ID: "bestseller"}, TxnID: "txn-7"},
		{Kind: KindCompact, Horizon: 99},
		{Kind: KindSummary, Key: st.Key, Summary: st, Horizon: 41},
	}
	seeds := [][]byte{nil, {byte(KindSummary)}, []byte("junk")}
	for i := range recs {
		b, err := EncodeRecord(nil, &recs[i])
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for cut := 1; cut < len(seeds[3]); cut++ {
		seeds = append(seeds, seeds[3][:cut])
	}

	dir := f.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	for off := len(segMagic); off+frameHeader <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		if off+frameHeader+n > len(raw) {
			break
		}
		payload := raw[off+frameHeader : off+frameHeader+n]
		flipped := append([]byte(nil), payload...)
		flipped[len(flipped)/2] ^= 0xFF
		seeds = append(seeds, payload, flipped)
		off += frameHeader + n
	}
	return seeds
}

// TestDecodeAllocatesInProportionToInput pins the two allocation bugs the
// fuzz invariant exposed: a wide summary rebuilt its child index every 64
// restored rows (quadratic in the row count), and an op count was checked
// against one byte per op, so a short payload could claim an op slice seven
// times larger than its bytes can hold.
func TestDecodeAllocatesInProportionToInput(t *testing.T) {
	const rows = 20000
	st := entity.NewState(entity.Key{Type: "Order", ID: "wide"})
	children := make([]entity.Child, rows)
	for i := range children {
		children[i] = entity.Child{ID: fmt.Sprintf("r%d", i%(rows/2)), Fields: entity.Fields{"qty": int64(i)}}
	}
	st.RestoreChildren("lineitems", children)
	st.Freeze()
	wide, err := EncodeRecord(nil, &WALRecord{Kind: KindSummary, Key: st.Key, Summary: st})
	if err != nil {
		t.Fatal(err)
	}
	head, err := EncodeRecord(nil, &WALRecord{LSN: 1, Key: entity.Key{Type: "T", ID: "i"}})
	if err != nil {
		t.Fatal(err)
	}
	claimed := appendUvarint(head[:len(head)-1], rows) // replace the op count
	claimed = append(claimed, make([]byte, rows)...)

	for _, tc := range []struct {
		name string
		data []byte
	}{{"wide-summary", wide}, {"claimed-ops", claimed}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := DecodeRecord(tc.data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fuzzAllocPerByte*len(tc.data)+fuzzAllocSlack) {
			t.Fatalf("%s: %d input bytes allocated %d bytes", tc.name, len(tc.data), grew)
		}
		if tc.name == "claimed-ops" {
			var ce *codecError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: %v, want a codec error", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got := rec.Summary
		if !reflect.DeepEqual(got.Children("lineitems"), st.Children("lineitems")) {
			t.Fatal("wide summary rows differ after decode")
		}
		// The index is built once for the run: first occurrences resolve,
		// and a delete reaches every duplicate of the id.
		if row, ok := got.ChildByID("lineitems", "r9999"); !ok || row.Fields["qty"] != int64(9999) {
			t.Fatalf("ChildByID after decode = %+v, %v", row, ok)
		}
		next, _, err := entity.Apply(&entity.Type{Name: "Order"}, got, []entity.Op{entity.DeleteChild("lineitems", "r1")}, entity.Managed)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(got.Children("lineitems")) - len(next.LiveChildren("lineitems")); n != 2 {
			t.Fatalf("delete tombstoned %d rows, want both copies of r1", n)
		}
	}
}
