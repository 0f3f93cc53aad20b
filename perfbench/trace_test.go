package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	// parent [0,100]; children overlap ([10,30] and [20,50]) and overhang
	// ([90,120]), so they cover 40 + 10 of the parent: self is 50.
	spans := []spanRec{
		{ID: 1, Name: "lsdb.append", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "storage.append_batch", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "storage.append_batch", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "storage.append_batch", Start: 90, End: 120},
		{ID: 5, Name: "lsdb.append", Start: 200, End: 260},
	}
	st := summarise(spans)
	a := st["lsdb.append"]
	if a.Count != 2 || a.Total != 160 {
		t.Fatalf("lsdb.append count %d total %v", a.Count, a.Total)
	}
	if a.Self != 50+60 {
		t.Fatalf("lsdb.append self = %v, want 110", a.Self)
	}
	if got := a.selfUSPerSpan(); got != float64(110)/2/1000 {
		t.Fatalf("self per span = %v us", got)
	}
	if b := st["storage.append_batch"]; b.Count != 3 || b.Self != b.Total {
		t.Fatalf("leaf spans: count %d self %v total %v", b.Count, b.Self, b.Total)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.record(0, 0, 1, "x", time.Now(), time.Now())
	if tr.newID() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}
}

func TestTracerParentsAndWrite(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	root := tr.newID()
	tr.record(0, root, 7, "child", now, now.Add(time.Millisecond))
	tr.record(root, 0, 7, "root", now, now.Add(2*time.Millisecond))
	st := summarise(tr.snapshot())
	if st["root"].Self != time.Millisecond {
		t.Fatalf("root self = %v", st["root"].Self)
	}
	if err := tr.writeTSV(t.TempDir() + "/spans.tsv"); err != nil {
		t.Fatal(err)
	}
}
