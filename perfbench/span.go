package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one run
// or session share Run; Parent names the enclosing span.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Run     int64  `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	runs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// newRun returns a fresh run identifier.
func (t *tracer) newRun() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

func (t *tracer) add(name, parent string, run int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Run: run,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// ms returns the durations of every span called name, in milliseconds.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}
