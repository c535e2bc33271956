package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time fold of a registry: the exchange format
// between a run and vidi-top, and the unit MergeSnapshots combines when one
// process (vidi-bench) gathers several runs.
type Snapshot struct {
	Families []FamilySnap `json:"families"`
}

// FamilySnap is one metric family in a snapshot.
type FamilySnap struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Series []SeriesSnap `json:"series"`
}

// SeriesSnap is one label combination's folded value.
type SeriesSnap struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the folded counter or gauge value.
	Value float64 `json:"value,omitempty"`
	// Summary (quantile histogram) fields. Centroids are the occupied
	// log-buckets (non-cumulative, mergeable); Quantiles are precomputed
	// points derived from them at gather time.
	Sum       float64         `json:"sum,omitempty"`
	Count     uint64          `json:"count,omitempty"`
	Centroids []Centroid      `json:"centroids,omitempty"`
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
}

// gather folds every family's shards into a deterministically ordered
// snapshot: families by name, series by label signature.
func (r *Registry) gather() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		fs := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind.String()}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			se := f.series[k]
			ss := SeriesSnap{}
			if len(se.labels) > 0 {
				ss.Labels = make(map[string]string, len(se.labels))
				for _, l := range se.labels {
					ss.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				var total uint64
				for _, c := range se.counters {
					total += c.n
				}
				ss.Value = float64(total)
			case KindGauge:
				for _, g := range se.gauges {
					ss.Value += g.v
				}
			case KindQuantile:
				merged := &QuantileHistogram{}
				for _, q := range se.quants {
					merged.Merge(q)
				}
				ss.Sum = merged.Sum()
				ss.Count = merged.Count()
				ss.Centroids = merged.centroids()
				for _, p := range qhQuantilePoints {
					ss.Quantiles = append(ss.Quantiles, QuantilePoint{Q: p, V: merged.Quantile(p)})
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// MergeSnapshots combines snapshots into one: same-kind families unify and
// series with identical labels fold by summation. Distinguish runs with
// const labels (app="sssp") before merging.
func MergeSnapshots(snaps ...*Snapshot) (*Snapshot, error) {
	type mf struct {
		FamilySnap
		byKey map[string]int // label signature → index into Series
	}
	fams := map[string]*mf{}
	var order []string
	sig := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte(0xff)
			b.WriteString(labels[k])
			b.WriteByte(0xfe)
		}
		return b.String()
	}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, f := range s.Families {
			m, ok := fams[f.Name]
			if !ok {
				m = &mf{FamilySnap: FamilySnap{Name: f.Name, Help: f.Help, Kind: f.Kind}, byKey: map[string]int{}}
				fams[f.Name] = m
				order = append(order, f.Name)
			} else if m.Kind != f.Kind {
				return nil, fmt.Errorf("telemetry: merge: family %q is both %s and %s", f.Name, m.Kind, f.Kind)
			}
			for _, se := range f.Series {
				k := sig(se.Labels)
				i, ok := m.byKey[k]
				if !ok {
					m.byKey[k] = len(m.Series)
					cp := se
					cp.Centroids = append([]Centroid(nil), se.Centroids...)
					cp.Quantiles = append([]QuantilePoint(nil), se.Quantiles...)
					m.Series = append(m.Series, cp)
					continue
				}
				dst := &m.Series[i]
				dst.Value += se.Value
				dst.Sum += se.Sum
				dst.Count += se.Count
				if len(dst.Centroids) > 0 || len(se.Centroids) > 0 {
					dst.Centroids = mergeCentroids(dst.Centroids, se.Centroids)
					dst.Quantiles = dst.Quantiles[:0]
					for _, p := range qhQuantilePoints {
						dst.Quantiles = append(dst.Quantiles, QuantilePoint{Q: p, V: quantileFromCentroids(dst.Centroids, p)})
					}
				}
			}
		}
	}
	sort.Strings(order)
	out := &Snapshot{}
	for _, n := range order {
		m := fams[n]
		sort.Slice(m.Series, func(i, j int) bool { return sig(m.Series[i].Labels) < sig(m.Series[j].Labels) })
		out.Families = append(out.Families, m.FamilySnap)
	}
	return out, nil
}

// WriteJSON encodes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot decodes a JSON snapshot (the vidi-top input format).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	return &s, nil
}

// WritePrometheus encodes the snapshot in the Prometheus text exposition
// format (version 0.0.4): families ordered by name, series by label
// signature, summaries expanded into quantile points, _sum and _count.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, se := range f.Series {
			switch f.Kind {
			case "summary":
				for _, qp := range se.Quantiles {
					fmt.Fprintf(&b, "%s%s %s\n",
						f.Name, labelString(se.Labels, "quantile", formatFloat(qp.Q)), formatFloat(qp.V))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labelString(se.Labels, "", ""), formatFloat(se.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labelString(se.Labels, "", ""), se.Count)
			default:
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labelString(se.Labels, "", ""), formatFloat(se.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Family returns the named family, or nil.
func (s *Snapshot) Family(name string) *FamilySnap {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Total sums a family's folded values across all series (0 if absent).
func (s *Snapshot) Total(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var t float64
	for _, se := range f.Series {
		t += se.Value
	}
	return t
}

// Label returns one label's value ("" if absent).
func (ss SeriesSnap) Label(key string) string { return ss.Labels[key] }

// QuantileValue returns the p-quantile of a summary series: recomputed from
// centroids when present (exact for any p), otherwise the nearest
// precomputed quantile point (a scraped exposition carries only those).
// Returns 0 for an empty series.
func (ss SeriesSnap) QuantileValue(p float64) float64 {
	if len(ss.Centroids) > 0 {
		return quantileFromCentroids(ss.Centroids, p)
	}
	best, bestDist := 0.0, math.Inf(1)
	for _, qp := range ss.Quantiles {
		if d := math.Abs(qp.Q - p); d < bestDist {
			best, bestDist = qp.V, d
		}
	}
	return best
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the summary quantile label). Returns "" when there is nothing to render.
func labelString(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q matches the exposition escaping rules for our ASCII label
		// values: backslash, quote and newline.
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders integral values without an exponent so counter
// expositions stay exact and diffable.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
