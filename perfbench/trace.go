package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span (-1 for a root); ID names the cell or
// request the span belongs to, so the spans of one request share it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. It is not
// safe for concurrent use: traced passes are serial.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, id string) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
}

// add records a span timed elsewhere (the load generator's client spans).
func (t *tracer) add(name string, parent int, id string, start, end time.Duration) {
	t.spans = append(t.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: parent, ID: id})
}

// layerTimes sums, per span name, the self time (the span's duration less
// the part its child spans cover) and counts the spans, over the spans
// with index in [from, to).
func (t *tracer) layerTimes(from, to int) (self map[string]time.Duration, count map[string]int) {
	self = map[string]time.Duration{}
	count = map[string]int{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans[from:to] {
		self[s.Name] += time.Duration(s.End - s.Start - child[from+i])
		count[s.Name]++
	}
	return self, count
}

// write stores the spans as JSON for later inspection.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
