package entity

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/clock"
)

// encodeTrace is the reference rendering of a history's trace: the bytes
// encoding/json's indented Encoder writes for Trace().
func encodeTrace(t testing.TB, h *History) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h.Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzHistory builds a history of n versions whose ops, flags and metadata
// are all driven by the fuzzer's inputs. Bit 0 of flags drops the describe
// text of odd versions (the Op.String fallback), bit 1 makes every third
// version tentative, bit 2 every fourth obsolete, bit 3 adds a child op.
func fuzzHistory(describe, value, node string, flags uint8, n int) *History {
	h := NewHistory(Key{Type: "Inventory", ID: value})
	for i := 0; i < n; i++ {
		ops := []Op{Delta("onhand", float64(i)-2.5).Described(describe), Set("note", value)}
		if flags&1 != 0 && i%2 == 1 {
			ops[0].Describe = ""
		}
		if flags&8 != 0 {
			ops = append(ops, SetChildField(describe, value, "qty", int64(i)))
		}
		h.Append(&Version{
			Seq:       uint64(i + 1),
			Ops:       ops,
			Stamp:     clock.Timestamp{WallNanos: int64(i) - 1, Logical: uint32(flags), Node: clock.NodeID(node)},
			Origin:    clock.NodeID(node + describe),
			Tentative: flags&2 != 0 && i%3 == 0,
			Obsolete:  flags&4 != 0 && i%4 == 0,
		})
	}
	return h
}

// FuzzHistoryTraceJSON is the differential check behind soupsd's streamed
// /history answer: for any describe text, set value, node name, flags and
// version count, AppendTraceJSON must equal the Encoder's bytes exactly.
func FuzzHistoryTraceJSON(f *testing.F) {
	f.Add("received <10> & packed", "a\"b\\c", "node", uint8(0), uint8(3))
	f.Add("nul \x00 bs \b ff \f tab \t nl \n cr \r", "\x01\x1f\x7f", "n", uint8(15), uint8(5))
	f.Add("bad utf8 \xff\xfe and cut \xe2\x80", "\xc3", "w\xff", uint8(1), uint8(2))
	f.Add("line\xe2\x80\xa8sep\xe2\x80\xa9para", "caf\xc3\xa9 \xf0\x9f\x93\xa6", "p", uint8(6), uint8(4))
	f.Add("", "", "", uint8(0), uint8(0))   // empty history
	f.Add("", "v", "n", uint8(9), uint8(3)) // ops without Describe
	f.Fuzz(func(t *testing.T, describe, value, node string, flags, n uint8) {
		h := fuzzHistory(describe, value, node, flags, int(n%40))
		want := encodeTrace(t, h)
		if got := h.AppendTraceJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendTraceJSON differs from json.Encoder over Trace()\n got: %q\nwant: %q", got, want)
		}
		// Appending after existing bytes must leave them alone.
		prefix := []byte("prefix<&>")
		if got := h.AppendTraceJSON(prefix); !bytes.Equal(got, append([]byte("prefix<&>"), want...)) {
			t.Fatalf("AppendTraceJSON after a prefix\n got: %q\nwant prefix + %q", got, want)
		}
	})
}

func TestTraceLineFormat(t *testing.T) {
	h := NewHistory(Key{Type: "Inventory", ID: "widget"})
	h.Append(&Version{Seq: 1, Stamp: clock.Timestamp{WallNanos: 12, Logical: 3, Node: "w"}, Origin: "warehouse",
		Ops: []Op{Delta("onhand", 10).Described("received 10"), Set("bin", "A7")}})
	h.Append(&Version{Seq: 2, Stamp: clock.Timestamp{WallNanos: -1, Node: "p"}, Origin: "packer", Tentative: true,
		Ops: []Op{Delta("onhand", -12)}})
	h.Append(&Version{Seq: 3, Stamp: clock.Timestamp{}, Origin: "", Tentative: true, Obsolete: true})
	want := []string{
		"#1 12.3@w by warehouse: received 10; set bin=A7",
		"#2 -1.0@p by packer: delta onhand-12 [tentative]",
		"#3 0.0@ by :  [obsolete]",
	}
	got := h.Trace()
	if len(got) != len(want) {
		t.Fatalf("trace = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendTraceJSONAllocations pins the allocation budget of the streamed
// encoding: describe-only versions rendered into a buffer that is already
// large enough allocate nothing, escaping or not.
func TestAppendTraceJSONAllocations(t *testing.T) {
	for _, describe := range []string{"received 10 widgets", "escaped <b> & \"quoted\"\n"} {
		h := NewHistory(Key{Type: "Inventory", ID: "widget"})
		for i := 0; i < 200; i++ {
			h.Append(&Version{Seq: uint64(i + 1), Stamp: clock.Timestamp{WallNanos: int64(i), Node: "n"}, Origin: "n",
				Ops: []Op{Delta("onhand", 1).Described(describe), Set("bin", "A7").Described(describe)}, Tentative: i%2 == 0})
		}
		buf := h.AppendTraceJSON(nil)
		if !bytes.Equal(buf, encodeTrace(t, h)) {
			t.Fatalf("describe %q: bytes differ from the Encoder", describe)
		}
		allocs := testing.AllocsPerRun(20, func() {
			buf = h.AppendTraceJSON(buf[:0])
		})
		if allocs != 0 {
			t.Fatalf("describe %q: AppendTraceJSON into a large enough buffer allocated %v times, want 0", describe, allocs)
		}
	}
}
