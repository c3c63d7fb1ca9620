package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Names are "<module>.<call>", and the
// module prefix is the layer a span's self time is charged to.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; they are summarized and
// written out once, when the run ends. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its handle.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// rename renames span i, for a span whose kind is known only once its
// call has returned.
func (t *tracer) rename(i int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].Name = name
	t.mu.Unlock()
}

// add records an already-measured child span of parent laid end to end
// after from, returning where it ends. It turns the durations a callee
// reports about itself (transpile.PassTiming) into spans.
func (t *tracer) add(name string, parent int, from, d time.Duration) time.Duration {
	if t == nil {
		return from
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: from, End: from + d})
	t.mu.Unlock()
	return from + d
}

// startOf returns span i's start offset.
func (t *tracer) startOf(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].Start
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// work under one parent) count once, as their union.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// module returns the layer a span name is charged to.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per module.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[module(s.Name)] += self[i]
	}
	return out
}

// spanTotal returns the number of spans with the given name and their
// total duration.
func spanTotal(spans []span, name string) (n int, total time.Duration) {
	for _, s := range spans {
		if s.Name == name {
			n++
			total += s.End - s.Start
		}
	}
	return n, total
}

// meanMicros is the mean duration of the named spans in microseconds
// (0 when none were recorded).
func meanMicros(spans []span, name string) float64 {
	n, total := spanTotal(spans, name)
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(time.Microsecond)
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
