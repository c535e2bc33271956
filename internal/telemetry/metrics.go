package telemetry

import (
	"fmt"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind uint8

// The three instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindQuantile
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindQuantile:
		return "summary"
	}
	return "untyped"
}

// Counter is a monotonically increasing shard, padded to a cache line so
// shards registered back to back never share one.
type Counter struct {
	n uint64
	_ [56]byte
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Gauge is a shard holding an arbitrary value. Shards of one series fold by
// summation on scrape.
type Gauge struct {
	v float64
	_ [56]byte
}

// Set replaces the shard's value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the shard's value. No-op on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v += v
	}
}

// series is one label combination of a family: the fold target for all
// shards registered under the same identity.
type series struct {
	labels   []Label // sorted by key
	counters []*Counter
	gauges   []*Gauge
	quants   []*QuantileHistogram
}

// family is one metric name: its kind, help and series.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

// Registry holds metric families. Registration takes a mutex (it happens at
// Build/setup time); shard mutation is lock-free single-writer arithmetic.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	flushers []func()
}

// NewRegistry returns an empty registry. Most callers want New (a Sink)
// instead.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	mustValidMetricName(name)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (f *family) at(labels []Label) *series {
	key := labelKey(labels)
	se, ok := f.series[key]
	if !ok {
		se = &series{labels: labels}
		f.series[key] = se
	}
	return se
}

func (r *Registry) counter(name, help string, labels []Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Counter{}
	se := r.family(name, help, KindCounter).at(labels)
	se.counters = append(se.counters, c)
	return c
}

func (r *Registry) gauge(name, help string, labels []Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := &Gauge{}
	se := r.family(name, help, KindGauge).at(labels)
	se.gauges = append(se.gauges, g)
	return g
}

func (r *Registry) quantile(name, help string, labels []Label) *QuantileHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := &QuantileHistogram{}
	se := r.family(name, help, KindQuantile).at(labels)
	se.quants = append(se.quants, q)
	return q
}

func (r *Registry) flush() {
	r.mu.Lock()
	fs := append([]func(){}, r.flushers...)
	r.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

// labelKey is the canonical series identity for a sorted label set.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

// mustValidMetricName enforces the Prometheus metric name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidMetricName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

// mustValidLabelKey enforces the Prometheus label name charset
// [a-zA-Z_][a-zA-Z0-9_]* and reserves the __ prefix.
func mustValidLabelKey(key string) {
	if !validName(key, false) || strings.HasPrefix(key, "__") {
		panic(fmt.Sprintf("telemetry: invalid label name %q", key))
	}
}

func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
