package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidi/internal/serve"
	"vidi/internal/telemetry"
)

func drain(t *testing.T, mode string, rows []row) []string {
	t.Helper()
	prev := sortMode
	sortMode = mode
	defer func() { sortMode = prev }()
	sortRows(rows)
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.key
	}
	return keys
}

// TestSortRowsStableOnTies: equal-valued rows must keep a deterministic
// name order instead of whatever map-iteration order produced them, so
// successive -watch frames don't shuffle ties.
func TestSortRowsStableOnTies(t *testing.T) {
	rows := []row{
		{key: "gamma", cols: []float64{5}},
		{key: "alpha", cols: []float64{5}},
		{key: "beta", cols: []float64{9}},
		{key: "delta", cols: []float64{5}},
	}
	got := drain(t, sortByValue, rows)
	want := []string{"beta", "alpha", "delta", "gamma"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value sort order = %v, want %v", got, want)
		}
	}
}

// TestSortRowsByName: -sort name ignores values entirely.
func TestSortRowsByName(t *testing.T) {
	rows := []row{
		{key: "zeta", cols: []float64{100}},
		{key: "alpha", cols: []float64{1}},
		{key: "mid", cols: []float64{50}},
	}
	got := drain(t, sortByName, rows)
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("name sort order = %v, want %v", got, want)
		}
	}
}

// TestRenderLoadReport: the -load panel renders a report file end to end.
func TestRenderLoadReport(t *testing.T) {
	rep := serve.LoadReport{
		Seed:             42,
		URL:              "http://127.0.0.1:9412",
		Sessions:         48,
		PeakConcurrent:   20,
		DurationMS:       1234,
		Requests:         500,
		RequestsPerSec:   405.2,
		Recorded:         30,
		Replayed:         10,
		Compared:         5,
		Degraded:         3,
		SlowChecked:      8,
		SlowCorrelated:   8,
		CompressionRatio: 2.5,
		Endpoints: []serve.EndpointStats{
			{Endpoint: "commit", Count: 48, P50MS: 4, P99MS: 20},
			{Endpoint: "put_segment", Count: 300, P50MS: 1, P99MS: 9},
		},
		SlowestRequests: []serve.SlowRequest{
			{RequestID: "load-42-17", Endpoint: "put_segment", Status: 200, DurationMS: 35.5},
		},
	}
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := renderLoad(&sb, path, 10); err != nil {
		t.Fatalf("renderLoad: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"put_segment", "commit", "load-42-17",
		"peak concurrent 20", "correlated 8/8", "compression ratio 2.50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	// put_segment has the larger count, so under value order it leads.
	if strings.Index(out, "put_segment") > strings.Index(out, "commit") {
		t.Fatalf("value sort should list put_segment before commit:\n%s", out)
	}

	if err := renderLoad(&sb, filepath.Join(t.TempDir(), "missing.json"), 10); err == nil {
		t.Fatal("renderLoad on a missing file should error")
	}
}

// TestRenderCPUJitter: the shell's CPU-jitter summary renders as a draw
// count and mean, from a gathered snapshot and from its scraped text alike.
func TestRenderCPUJitter(t *testing.T) {
	sink := telemetry.New()
	q := sink.Quantile("vidi_cpu_jitter_cycles", "Seeded inter-op delays drawn by CPU agent threads.")
	for _, v := range []float64{0, 2, 7} {
		q.Observe(v)
	}
	snap := sink.Gather()
	var text bytes.Buffer
	if err := snap.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	scraped, err := telemetry.ParsePrometheus(&text)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*telemetry.Snapshot{snap, scraped} {
		var out bytes.Buffer
		renderStalls(&out, s)
		if !strings.Contains(out.String(), "cpu jitter draws                          3 (mean 3.0 cycles)") {
			t.Fatalf("jitter line missing:\n%s", out.String())
		}
	}
}
