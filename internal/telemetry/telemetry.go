// Package telemetry is Vidi's stdlib-only observability layer: a typed
// metrics registry (counters, gauges, log-bucketed quantile histograms) with
// Prometheus text and JSON snapshot encoders, and a span/event tracer keyed
// to simulation cycles that emits Chrome trace_event JSON loadable in
// Perfetto or chrome://tracing.
//
// # Determinism and cost model
//
// Instrumented code must behave identically whether or not a sink is armed:
// instruments only ever observe, never feed back into simulation. The
// golden regression tests enforce this by comparing recorded trace bytes
// between a nil sink and an active one.
//
// The hot path is lock-free by ownership, not by atomics: every call to
// Sink.Counter (Gauge, Quantile) returns a fresh shard registered under
// the shared series identity, and each shard is owned by exactly one
// instrumentation site. A simulation runs entirely on its caller's
// goroutine, so a module's Eval/Tick shard mutation is plain
// single-writer arithmetic; Gather folds the shards into one value per
// series after the run, off the hot path. This is why `-race` golden runs
// stay byte-identical with telemetry armed.
//
// A nil *Sink is fully usable: every constructor returns a nil instrument
// and every instrument method on a nil receiver is a no-op, so the zero
// configuration costs one predictable branch per call site.
package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// Label is one metric dimension. Keys must match [a-zA-Z_][a-zA-Z0-9_]*.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sink bundles a metrics registry and an optional cycle tracer behind one
// nil-safe handle that is threaded through the simulator, the record/replay
// core, the shell and the fault layer.
type Sink struct {
	reg    *Registry
	tracer *Tracer
	consts []Label
}

// Option configures a Sink.
type Option func(*Sink)

// WithTracing arms the span tracer; without it Track returns nil and span
// recording costs nothing.
func WithTracing() Option {
	return func(s *Sink) { s.tracer = newTracer() }
}

// WithConstLabels attaches labels to every series registered through the
// sink (e.g. app="sssp" when one process gathers several runs).
func WithConstLabels(labels ...Label) Option {
	return func(s *Sink) { s.consts = append(s.consts, labels...) }
}

// New creates an armed sink.
func New(opts ...Option) *Sink {
	s := &Sink{reg: NewRegistry()}
	for _, o := range opts {
		o(s)
	}
	for _, l := range s.consts {
		mustValidLabelKey(l.Key)
	}
	return s
}

// Counter registers (or extends) a counter series and returns a new shard
// owned by the caller. Returns nil on a nil sink.
func (s *Sink) Counter(name, help string, labels ...Label) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.counter(name, help, s.withConsts(labels))
}

// Gauge registers (or extends) a gauge series and returns a new shard owned
// by the caller. Shards fold by summation on scrape, so register one shard
// per disjoint quantity. Returns nil on a nil sink.
func (s *Sink) Gauge(name, help string, labels ...Label) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.gauge(name, help, s.withConsts(labels))
}

// Quantile registers (or extends) a log-bucketed quantile histogram series
// (Prometheus summary kind) and returns a new shard owned by the caller.
// Shards of one series merge on scrape; quantiles come out of the merged
// distribution with ~1% relative error. Returns nil on a nil sink.
func (s *Sink) Quantile(name, help string, labels ...Label) *QuantileHistogram {
	if s == nil {
		return nil
	}
	return s.reg.quantile(name, help, s.withConsts(labels))
}

// Track returns the tracer track for (process, thread), creating it on
// first use. Returns nil when the sink is nil or tracing is not armed, and
// a nil *Track swallows spans for free.
func (s *Sink) Track(process, thread string) *Track {
	if s == nil || s.tracer == nil {
		return nil
	}
	return s.tracer.track(process, thread)
}

// Tracing reports whether span recording is armed.
func (s *Sink) Tracing() bool { return s != nil && s.tracer != nil }

// OnGather registers a callback run at the start of every Gather and
// WriteTrace. Components that keep private counters on their own structs
// (the scheduler's counters) register a fold-the-deltas
// callback here instead of touching telemetry on the hot path at all.
func (s *Sink) OnGather(f func()) {
	if s == nil || f == nil {
		return
	}
	s.reg.mu.Lock()
	s.reg.flushers = append(s.reg.flushers, f)
	s.reg.mu.Unlock()
}

// Gather folds all shards and returns a point-in-time snapshot. It must not
// race with a running simulation Step; call it after Run returns.
func (s *Sink) Gather() *Snapshot {
	if s == nil {
		return &Snapshot{}
	}
	s.reg.flush()
	return s.reg.gather()
}

// WriteTrace finalizes open spans and writes the Chrome trace_event JSON
// document. On a nil or trace-less sink it writes an empty, still valid,
// trace.
func (s *Sink) WriteTrace(w io.Writer) error {
	if s == nil || s.tracer == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	s.reg.flush()
	return s.tracer.writeJSON(w)
}

// withConsts merges the sink's const labels in and returns the sorted,
// validated label set.
func (s *Sink) withConsts(labels []Label) []Label {
	out := make([]Label, 0, len(labels)+len(s.consts))
	out = append(out, s.consts...)
	out = append(out, labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i, l := range out {
		mustValidLabelKey(l.Key)
		if i > 0 && out[i-1].Key == l.Key {
			panic(fmt.Sprintf("telemetry: duplicate label key %q", l.Key))
		}
	}
	return out
}
