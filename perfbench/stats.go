package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

// missedUS is the latency, in microseconds, that a failed, refused or
// indeterminate operation is charged when a percentile lands on it: one
// hour, which misses every latency limit anyone would set. Reporting a
// finite number keeps the JSON valid while still making a run that sheds
// load read slower, never faster, than one that serves everything.
const missedUS = 3600e6

// latency is a latency distribution in which failures count. Served
// operations go into an HDR histogram (loadgen.Hist); failed ones are only
// counted, and rank above every served one when a quantile is taken.
type latency struct {
	hist   *loadgen.Hist
	failed atomic.Uint64
}

func newLatency() *latency { return &latency{hist: loadgen.NewHist()} }

// ok records one served operation.
func (l *latency) ok(d time.Duration) { l.hist.Record(d) }

// fail records one operation that failed, was refused or ended
// indeterminate.
func (l *latency) fail() { l.failed.Add(1) }

// merge folds other into l (both quiesced).
func (l *latency) merge(other *latency) {
	l.hist.Merge(other.hist)
	l.failed.Add(other.failed.Load())
}

// attempted is the number of operations recorded, served or not.
func (l *latency) attempted() uint64 { return l.hist.Count() + l.failed.Load() }

// quantileUS returns the q-quantile in microseconds over every attempted
// operation, failures ranked last. It returns missedUS when the rank lands
// on a failure and 0 when nothing was recorded.
func (l *latency) quantileUS(q float64) float64 {
	served := l.hist.Count()
	n := served + l.failed.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > served {
		return missedUS
	}
	// Hist.Quantile takes floor(q*served) as its target rank; asking for
	// rank+0.5 lands exactly on rank despite float rounding.
	d := l.hist.Quantile((float64(rank) + 0.5) / float64(served))
	return float64(d) / float64(time.Microsecond)
}

// failRatio is failed / attempted (0 when nothing was attempted).
func (l *latency) failRatio() float64 {
	n := l.attempted()
	if n == 0 {
		return 0
	}
	return float64(l.failed.Load()) / float64(n)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// valueRange is the largest value minus the smallest; 0 for fewer than two.
func valueRange(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi - lo
}
