package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	const rate, ranks = 85, 288
	d := 15 * time.Second
	a, b := schedule(7, rate, d, ranks), schedule(7, rate, d, ranks)
	if scheduleFingerprint(a) != scheduleFingerprint(b) {
		t.Fatal("the same seed gave two schedules")
	}
	c := schedule(8, rate, d, ranks)
	if scheduleFingerprint(a) == scheduleFingerprint(c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != int(math.Round(rate*d.Seconds())) {
		t.Fatalf("%d arrivals, want rate × seconds", len(a))
	}
	// Every seed sends the same mix, in another order and at other times.
	mix := func(s []arrival) map[[2]int]int {
		m := map[[2]int]int{}
		for _, x := range s {
			m[[2]int{x.rank, x.kind}]++
		}
		return m
	}
	ma, mc := mix(a), mix(c)
	if len(ma) != len(mc) {
		t.Fatalf("mixes differ in size: %d vs %d", len(ma), len(mc))
	}
	for k, n := range ma {
		if mc[k] != n {
			t.Fatalf("cell %v: %d vs %d requests", k, n, mc[k])
		}
	}
	for i, x := range a {
		if x.at < 0 || x.at >= d || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v: outside [0, %v) or out of order", i, x.at, d)
		}
	}
}

func TestScheduleIsZipfSkewed(t *testing.T) {
	s := schedule(1, 85, 15*time.Second, 288)
	byRank := map[int]int{}
	kinds := make([]int, len(serviceKinds))
	for _, x := range s {
		byRank[x.rank]++
		kinds[x.kind]++
	}
	if byRank[0] <= byRank[10] || byRank[10] <= byRank[200] {
		t.Errorf("popularity not decreasing with rank: %d, %d, %d", byRank[0], byRank[10], byRank[200])
	}
	for k, n := range kinds {
		want := serviceKinds[k].weight * float64(len(s))
		if math.Abs(float64(n)-want) > 2 {
			t.Errorf("%s: %d requests, want about %.0f", serviceKinds[k].name, n, want)
		}
	}
}

// A stall on the only connection makes the requests behind it late:
// the open loop must send them as soon as the connection frees up and
// time them from when they were due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	sched := []arrival{{at: 0}, {at: 10 * time.Millisecond}, {at: 20 * time.Millisecond}}
	const stall = 100 * time.Millisecond
	start := time.Now()
	var mu sync.Mutex
	lat := make([]float64, len(sched))
	lag := make([]float64, len(sched))
	openLoop(start, sched, 1, func(i int, due, sent time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		mu.Lock()
		lat[i], lag[i] = opTiming(true, due, sent, time.Now())
		mu.Unlock()
	})
	if lag[0] > 5 {
		t.Errorf("first request sent %.1f ms late", lag[0])
	}
	for i := 1; i < len(sched); i++ {
		dueMs := float64(sched[i].at) / 1e6
		if lag[i] < float64(stall)/1e6-dueMs-1 {
			t.Errorf("request %d: lag %.1f ms, want at least the stall minus its due time", i, lag[i])
		}
		if lat[i] < lag[i] {
			t.Errorf("request %d: latency %.1f ms below its lag %.1f ms", i, lat[i], lag[i])
		}
	}
}
