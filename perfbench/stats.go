package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// leave above it: a percentile with fewer samples beyond it is noise.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. An empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailPercentile picks the percentile to report a tail at: want, if n
// samples leave at least minBeyond above it, else the highest ladder
// percentile below want that does. ok is false when even the median
// leaves fewer than minBeyond beyond it.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// median is the 50th percentile by linear interpolation between the two
// middle samples (used for repeated measurements, not latency tails).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio divides, reporting 0 for an empty base; callers print the base
// next to every ratio so a 0 with base 0 reads as "not exercised".
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// latencySummary is the end-to-end timing summary of one run: the
// median and the highest percentile with minBeyond samples above it.
type latencySummary struct {
	N      int
	P50    float64
	Tail   float64
	TailP  float64
	TailOK bool
}

func summarize(ms []float64, wantTail float64) latencySummary {
	p, ok := tailPercentile(len(ms), wantTail)
	return latencySummary{
		N:      len(ms),
		P50:    percentile(ms, 50),
		Tail:   percentile(ms, p),
		TailP:  p,
		TailOK: ok,
	}
}
