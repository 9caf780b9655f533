package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer: which layer, what call, when it
// started and ended (relative to the tracer's start), and the span that
// made the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them at the end of the run. A
// nil *tracer records nothing, so untraced passes pay one nil check per
// span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(parent int64, layer, name string, f func(id int64)) time.Duration {
	id := t.begin(parent, layer, name)
	t0 := time.Now()
	f(id)
	d := time.Since(t0)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part of it that child spans
// cover. Children of one span may overlap (concurrent requests); their
// union is subtracted once.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := union(children[s.ID], s.Start, s.End)
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// union returns the length of [lo,hi] covered by the spans' intervals.
func union(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
