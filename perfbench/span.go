package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// traced run. Spans of one replication share a Group.
type span struct {
	ID           int    `json:"id"`
	Parent       int    `json:"parent"` // 0: no parent
	Name         string `json:"name"`
	Group        string `json:"group"`
	StartNS      int64  `json:"start_ns"`
	EndNS        int64  `json:"end_ns"`
	AllocBytes   int64  `json:"alloc_bytes"`
	AllocObjects int64  `json:"alloc_objects"`
	Count        int64  `json:"count,omitempty"` // work done: messages, visits, adds
}

// tracer keeps spans in memory until the run ends; a nil tracer records
// nothing, so untraced code paths share the traced ones. begin/end nest on the
// benchmark's goroutine; addDone records a span another goroutine timed
// (a sweep point) under whichever span is open. It also tracks the live
// heap's high-water mark at every span boundary.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	open     []int
	start    []heapCounters // heap counters at begin, by span index
	heapPeak uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) sampleHeap() heapCounters {
	h := readHeap()
	if h.HeapBytes > t.heapPeak {
		t.heapPeak = h.HeapBytes
	}
	return h
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, group string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group})
	t.start = append(t.start, t.sampleHeap())
	t.open = append(t.open, id)
	t.spans[id-1].StartNS = t.since(time.Now())
	return id
}

// end closes span id, which must be the innermost open span, crediting
// it with count units of work.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	h := t.sampleHeap()
	s := &t.spans[id-1]
	s.EndNS = t.since(now)
	s.AllocBytes = int64(h.AllocBytes - t.start[id-1].AllocBytes)
	s.AllocObjects = int64(h.AllocObjects - t.start[id-1].AllocObjects)
	s.Count = count
}

// addDone records a finished span [start, end) timed elsewhere, as a
// child of the innermost open span. Safe from any goroutine.
func (t *tracer) addDone(name, group string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group,
		StartNS: t.since(start), EndNS: t.since(end)})
	t.start = append(t.start, heapCounters{})
}

// selfTimes returns every span's duration minus the part of it that its
// children cover (children may overlap each other).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{time.Duration(s.StartNS), time.Duration(s.EndNS)})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		lo, hi := time.Duration(s.StartNS), time.Duration(s.EndNS)
		self[i] = hi - lo - coveredTime(kids[s.ID], lo, hi)
	}
	return self
}

// layerTotals sums the spans named name: self time, work count, bytes
// and objects allocated, and how many spans there were.
type layerTotals struct {
	Self         time.Duration
	Count        int64
	AllocBytes   int64
	AllocObjects int64
	Spans        int
}

func (t *tracer) totals(name string) layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var lt layerTotals
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		lt.Self += self[i]
		lt.Count += s.Count
		lt.AllocBytes += s.AllocBytes
		lt.AllocObjects += s.AllocObjects
		lt.Spans++
	}
	return lt
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close() //nolint:errcheck // the encode error is the one reported
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one reported
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
