package eval

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestKernelBaselineGate exercises the exact kernel gate on synthetic
// tables: an identical table passes, and every kind of difference fails
// with a message naming the offending app or counter.
func TestKernelBaselineGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	base := &KernelTable{Scale: 1, Seed: 7, Rows: []KernelBenchRow{
		{App: "alpha", Cycles: 100, LegacyEvals: 900, SchedEvals: 40, SkippedTicks: 12, TraceBytes: 64},
		{App: "beta", Cycles: 50, LegacyEvals: 400, SchedEvals: 30, BatchedCycles: 20, ReadsAll: 1},
	}}
	if err := WriteKernelBenchJSON(path, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKernelBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, base) {
		t.Fatalf("round-trip: got %+v, want %+v", loaded, base)
	}
	if err := CheckKernelBaseline(loaded, base); err != nil {
		t.Fatalf("identical table rejected: %v", err)
	}

	// fresh copies the baseline with one edit applied.
	fresh := func(edit func(*KernelTable)) *KernelTable {
		tab := *base
		tab.Rows = append([]KernelBenchRow(nil), base.Rows...)
		edit(&tab)
		return &tab
	}
	for _, tc := range []struct {
		name string
		run  *KernelTable
		want []string
	}{
		{"counter changed", fresh(func(k *KernelTable) { k.Rows[1].BatchedCycles = 19 }),
			[]string{"beta", "sched_batched_cycles", "20", "19"}},
		{"seed mismatch", fresh(func(k *KernelTable) { k.Seed = 8 }), []string{"seed 7", "seed 8"}},
		{"scale mismatch", fresh(func(k *KernelTable) { k.Scale = 2 }), []string{"scale 1", "scale 2"}},
		{"app missing", fresh(func(k *KernelTable) { k.Rows = k.Rows[:1] }), []string{"beta", "not in this run"}},
		{"extra app", fresh(func(k *KernelTable) { k.Rows = append(k.Rows, KernelBenchRow{App: "gamma"}) }),
			[]string{"gamma", "not in baseline"}},
	} {
		err := CheckKernelBaseline(loaded, tc.run)
		if err == nil {
			t.Errorf("%s: gate passed", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error lacks %q: %v", tc.name, w, err)
			}
		}
		if strings.Contains(err.Error(), "alpha") {
			t.Errorf("%s: error names the unchanged app: %v", tc.name, err)
		}
	}
}

// TestKernelBenchRow runs the bench machinery on one short app: the row
// carries the scheduler counters of a plain uninstrumented recording, and
// a second run reproduces the table exactly, so the gate passes against
// it.
func TestKernelBenchRow(t *testing.T) {
	tab, snap, err := KernelBench([]string{"dma-irq"}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || snap == nil || len(snap.Families) == 0 {
		t.Fatalf("rows=%d snap=%v", len(tab.Rows), snap)
	}
	r := tab.Rows[0]
	if r.Cycles == 0 || r.LegacyEvals == 0 || r.SchedEvals == 0 || r.SchedEvals >= r.LegacyEvals || r.TraceBytes == 0 {
		t.Fatalf("row counters: %+v", r)
	}
	plain, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	st := plain.Stats
	if r.SchedEvals != st.EvalCalls || r.SettleWaves != st.SettleWaves || r.SkippedEvals != st.SkippedEvals ||
		r.SkippedTicks != st.SkippedTicks || r.BatchedCycles != st.BatchedCycles {
		t.Fatalf("instrumented row %+v differs from the uninstrumented run's %v", r, st)
	}
	again, _, err := KernelBench([]string{"dma-irq"}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckKernelBaseline(tab, again); err != nil {
		t.Fatalf("rerun differs: %v", err)
	}
}
