package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSampled bounds the spans of one name under one parent that record
// keeps: the first maxSampled trials of a campaign cell or rounds of a
// ladder rung. maxSpans bounds all the spans record keeps. Later ones
// are counted as dropped, so a long traced run cannot grow without limit.
// The spans begin opens, one per cell, pass or ladder step, are few and
// always kept.
const (
	maxSampled = 64
	maxSpans   = 100000
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one trial share Trial.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trial  int64  `json:"trial"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	trials   atomic.Int64 // trial ids handed out
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	sampled  map[sampleKey]int // spans record kept per parent and name
	recorded int               // spans record kept
	dropped  int
	partial  map[int]bool // spans with a dropped child
}

type sampleKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sampled: make(map[sampleKey]int), partial: make(map[int]bool)}
}

// begin opens a span and returns its id (0 when tracing is off); parent
// 0 marks a root span.
func (t *tracer) begin(name string, parent int, trial int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: trial, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes the span begin returned at a time the caller measured.
func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself, one of
// many of its name under parent; past maxSampled of them it is dropped.
func (t *tracer) record(name string, parent int, trial int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := sampleKey{parent, name}
	if t.recorded >= maxSpans || t.sampled[k] >= maxSampled {
		t.dropped++
		t.partial[parent] = true
		return
	}
	t.sampled[k]++
	t.recorded++
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: trial,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// layerTime is one span name's total and self time. Self time is the
// span's duration minus the part of it its child spans cover; it is
// known only for a span whose children were all kept, so SelfMs sums
// those spans and Partial counts the others.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	Partial int     `json:"partial"`
}

// summary aggregates closed spans by name.
func (t *tracer) summary() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		if t.partial[s.ID] {
			lt.Partial++
			continue
		}
		lt.SelfMs += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of [lo, hi] covered by the union of ivs
// (children of concurrent workers may overlap each other).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write stores the spans and the per-name summary as JSON at path.
func (t *tracer) write(path string) error {
	sum := t.summary()
	t.mu.Lock()
	doc := struct {
		Spans   []span      `json:"spans"`
		Dropped int         `json:"dropped"`
		Layers  []layerTime `json:"layers"`
	}{t.spans, t.dropped, sum}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// count returns the number of spans kept and of spans dropped.
func (t *tracer) count() (kept, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}
