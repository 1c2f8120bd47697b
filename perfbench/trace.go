package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around its call into the program.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int64  `json:"op"`     // the operation (page, item, request) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid no-op tracer, so untraced runs share the traced code path.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Open is a span that has started and not yet ended.
type Open struct {
	t *Tracer
	s Span
}

// Begin starts a span named name under parent (0 for a root) within
// operation op.
func (t *Tracer) Begin(name string, op, parent int64) *Open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &Open{t: t, s: Span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))}}
}

// ID is the span's identifier, for use as a child's parent (0 when the
// tracer is off).
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// End records the span.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its children cover. Children may
// overlap each other (parallel calls); the covered part is their union,
// clipped to the parent.
func selfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within
// [p.Start, p.End].
func covered(p Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTimes sums self time (ns) per span name.
func layerTimes(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	byName := map[string]int64{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	return byName
}
