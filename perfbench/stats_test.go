package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{n: 1000, want: 99, p: 99, ok: true},   // 10 beyond p99
		{n: 999, want: 99, p: 98, ok: true},    // 9 beyond p99: fall back
		{n: 100, want: 90, p: 90, ok: true},    // exactly 10 beyond
		{n: 99, want: 90, p: 80, ok: true},     // 9 beyond p90
		{n: 2000, want: 95, p: 95, ok: true},   // never above the wanted percentile
		{n: 20, want: 99, p: 50, ok: true},     // 10 beyond the median
		{n: 19, want: 99, p: 50, ok: false},    // not even the median qualifies
		{n: 1273, want: 99, p: 99, ok: true},   // 12 beyond
		{n: 1009, want: 99.9, p: 99, ok: true}, // 1 beyond p99.9
	} {
		p, ok := tailPercentile(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarizeReportsChosenPercentile(t *testing.T) {
	s := summarize(seq(99), 90)
	if s.N != 99 || s.P50 != 50 || s.TailP != 80 || s.Tail != 80 {
		t.Errorf("summary of 1..99 = %+v", s)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", r)
	}
}

func TestOpTimingFromDueAndSend(t *testing.T) {
	t0 := time.Now()
	due, sent, done := t0, t0.Add(5*time.Millisecond), t0.Add(20*time.Millisecond)
	lat, lag := opTiming(true, due, sent, done)
	if lat != 20 || lag != 5 {
		t.Errorf("open loop: latency %g lag %g, want 20 and 5", lat, lag)
	}
	lat, lag = opTiming(false, due, sent, done)
	if lat != 15 || lag != 5 {
		t.Errorf("closed loop: latency %g lag %g, want 15 and 5", lat, lag)
	}
}
