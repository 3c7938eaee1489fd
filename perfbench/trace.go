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

// span is one timed call into a layer. Spans of one operation share
// Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string, parent, op int64) (end func()) {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: int64(i + 1), Parent: parent, Op: op, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return func() {
		stop := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		t.spans[i].End = stop
		t.mu.Unlock()
	}
}

// record adds a span whose interval was measured elsewhere, such as a
// job's queue wait read from the server's timestamps, and returns its id.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil || end.Before(start) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its children cover. Children of one parent may
// overlap (concurrent requests), so their intervals are merged first.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		curS, curE := int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
