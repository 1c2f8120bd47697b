package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "page", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "decode", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Name: "check", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "inner", Start: 12, End: 18},  // a grandchild
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [80,100] of [0,100]: 60.
	for id, want := range map[int64]int64{1: 40, 2: 14, 3: 30, 4: 40, 5: 6} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	if byName := layerTimes(spans); byName["decode"] != 44 {
		t.Errorf("decode: self %d, want 44", byName["decode"])
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	root := tr.Begin("op", 7, 0)
	child := tr.Begin("call", 7, root.ID())
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Parent != r.ID || c.Op != 7 || r.Op != 7 || r.Parent != 0 {
		t.Errorf("spans %+v", spans)
	}
	if c.Start < r.Start || c.End > r.End || c.dur() < int64(time.Millisecond) {
		t.Errorf("child [%d,%d] not inside root [%d,%d]", c.Start, c.End, r.Start, r.End)
	}
	if s := selfTimes(spans); s[r.ID] != r.dur()-c.dur() {
		t.Errorf("root self %d, want %d", s[r.ID], r.dur()-c.dur())
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *Tracer
	o := tr.Begin("x", 1, 0)
	if o.ID() != 0 {
		t.Error("nil tracer gave a span ID")
	}
	o.End()
	if tr.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}
}
