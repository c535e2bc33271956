package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the result lines must match.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the benchmark in-process and returns its result line and
// full output.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("perfbench %v: correct=%v failed=%d attempted=%d\n%s",
			args, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

// checkMetrics requires exactly the metrics want, with their units.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// TestWorkloadsBriefly runs every workload for a moment, serve included: each
// must pass its correctness checks and report every end-to-end metric, none
// of them 0.
func TestWorkloadsBriefly(t *testing.T) {
	workDir = t.TempDir()
	s := loadSpec(t)
	for _, w := range workloadNames {
		res, _ := runBench(t, "--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", "0")
		checkMetrics(t, res.Metrics, s.EndToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
}

// TestTracedRunRepeatsExactly makes two short traced runs with the same
// seed: both pass their checks, report every per-layer metric, and the
// second matches the first's deterministic fingerprint.
func TestTracedRunRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced runs take about half a minute")
	}
	workDir = t.TempDir()
	s := loadSpec(t)
	first, _ := runBench(t, "--workload", "record", "--seed", "5", "--seconds", "0.3", "--trace", "1")
	checkMetrics(t, first.Metrics, s.PerLayer)
	second, out := runBench(t, "--workload", "serve", "--seed", "5", "--seconds", "0.3", "--trace", "1")
	if !strings.Contains(out, "exact-repeat: matches") {
		t.Fatalf("second traced run was not checked against the first:\n%s", out)
	}
	// The simulator and trace counters are exact; the fingerprint check
	// already compared them, this states it at the metric level.
	for _, m := range s.PerLayer {
		exact := m.Unit == "count" && (strings.Contains(m.Name, ".sim.") || strings.Contains(m.Name, ".trace."))
		if a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value; exact && a != b {
			t.Errorf("%s: %v then %v", m.Name, a, b)
		}
	}
}
