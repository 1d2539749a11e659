package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
// Spans of one traced unit (a pipeline run, a request, an ingest step)
// share a trace ID; Parent is 0 for a trace's root.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; write saves them once, at the end
// of the run. A nil tracer records nothing, so untraced runs pay no
// more than a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	trace int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh trace ID.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, trace, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, trace, parent int64, fn func()) {
	id := t.begin(name, trace, parent)
	fn()
	t.end(id)
}

// layerTimes is the per-name aggregate of span self times.
type layerTimes struct {
	self  map[string]time.Duration
	total map[string]time.Duration
	count map[string]int
}

// selfTimes computes every span's self time — its duration minus the
// union of its children's intervals, clipped to it — and sums them by
// span name.
func (t *tracer) selfTimes() layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		covered := coveredNs(s, children[s.ID])
		lt.self[s.Name] += time.Duration(d - covered)
		lt.total[s.Name] += time.Duration(d)
		lt.count[s.Name]++
	}
	return lt
}

// coveredNs is the length of the union of the children's intervals
// inside the parent's.
func coveredNs(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the middle of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
