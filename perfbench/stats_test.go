package main

import (
	"testing"
	"time"
)

func TestQuantileCountsFailuresAsMissingEveryLimit(t *testing.T) {
	l := newLatency()
	for i := 0; i < 98; i++ {
		l.ok(time.Millisecond)
	}
	l.fail()
	l.fail()
	if got := l.quantileUS(0.5); got < 990 || got > 1010 {
		t.Fatalf("p50 = %vus, want ~1000", got)
	}
	if got := l.quantileUS(0.98); got >= missedUS {
		t.Fatalf("p98 = %vus lands on a served request, want ~1000", got)
	}
	if got := l.quantileUS(0.99); got != missedUS {
		t.Fatalf("p99 = %vus, want the failure charge %v: 2 of 100 failed", got, missedUS)
	}
	if got := l.failRatio(); got != 0.02 {
		t.Fatalf("fail ratio = %v, want 0.02", got)
	}
	if got := l.attempted(); got != 100 {
		t.Fatalf("attempted = %d, want 100", got)
	}
}

func TestQuantileRanksExactly(t *testing.T) {
	l := newLatency()
	for i := 1; i <= 100; i++ {
		l.ok(time.Duration(i) * time.Microsecond)
	}
	// Below 64ns-wide buckets the histogram is exact, so rank r reads r us
	// to within its 1.6% resolution.
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.01, 1}} {
		got := l.quantileUS(c.q)
		if got < c.want*0.98 || got > c.want*1.02 {
			t.Errorf("q%.2f = %vus, want %vus", c.q, got, c.want)
		}
	}
}

func TestShedRunReadsSlowerNotFaster(t *testing.T) {
	served, shedding := newLatency(), newLatency()
	for i := 0; i < 100; i++ {
		served.ok(10 * time.Millisecond)
	}
	// The shedding run answers its served half fast and refuses the rest.
	for i := 0; i < 50; i++ {
		shedding.ok(time.Millisecond)
		shedding.fail()
	}
	if shedding.quantileUS(0.99) <= served.quantileUS(0.99) {
		t.Fatalf("shedding p99 %v <= serving p99 %v", shedding.quantileUS(0.99), served.quantileUS(0.99))
	}
}

func TestQuantileEmptyAndAllFailed(t *testing.T) {
	l := newLatency()
	if got := l.quantileUS(0.5); got != 0 {
		t.Fatalf("empty p50 = %v", got)
	}
	l.fail()
	if got := l.quantileUS(0.01); got != missedUS {
		t.Fatalf("all-failed p1 = %v, want %v", got, missedUS)
	}
}

func TestMergeKeepsFailures(t *testing.T) {
	a, b := newLatency(), newLatency()
	a.ok(time.Millisecond)
	b.fail()
	a.merge(b)
	if a.attempted() != 2 || a.failRatio() != 0.5 {
		t.Fatalf("merged attempted %d fail ratio %v", a.attempted(), a.failRatio())
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	xs := []float64{2, 1}
	median(xs)
	if xs[0] != 2 {
		t.Fatal("median reordered its input")
	}
}
