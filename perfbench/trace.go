package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span: a call the benchmark made into a layer (or
// a slice of such a call, like the wait before a request left the client).
// Spans of one operation share Req; Parent is the enclosing span's ID, 0 for
// a root.
type spanRec struct {
	ID, Parent int64
	Req        uint64
	Name       string
	Start, End int64 // nanoseconds since the tracer's origin
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]spanRec, 0, 1<<16)}
}

// newID reserves a span ID, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span with a pre-reserved id (0 allocates one).
func (t *tracer) record(id, parent int64, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := spanRec{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeTSV writes every span to path, one per line.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarises the spans of one name.
type spanStats struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self time
	Durs  *latency      // duration distribution
}

// selfUSPerSpan is the mean self time per span in microseconds.
func (s spanStats) selfUSPerSpan() float64 { return ratio(micros(s.Self), float64(s.Count)) }

// summarise groups spans by name. A span's self time is its duration minus
// the part of its interval covered by its children (the union of their
// intervals, clipped to the parent, so overlapping children count once).
func summarise(spans []spanRec) map[string]*spanStats {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{Durs: newLatency()}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
		st.Durs.ok(s.dur())
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent spanRec, kids []spanRec) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}
