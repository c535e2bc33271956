package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"vidi/internal/telemetry"
)

// KernelBenchRow holds one application's deterministic simulation-kernel
// counters: the legacy re-evaluate-everything fixpoint's eval calls next to
// the sensitivity-graph scheduler's counters for the same R2 recording.
// Every field repeats exactly for a given seed and scale, so the baseline
// gate compares them for equality; wall-clock throughput is perfbench's
// record workload (record.sim.run_ms, record.sim.ns_per_cycle,
// sim_cycles_per_s).
type KernelBenchRow struct {
	App           string `json:"app"`
	Cycles        uint64 `json:"cycles"`
	LegacyEvals   uint64 `json:"legacy_eval_calls"`
	SchedEvals    uint64 `json:"sched_eval_calls"`
	SettleWaves   uint64 `json:"sched_settle_waves"`
	SkippedEvals  uint64 `json:"sched_skipped_evals"`
	SkippedTicks  uint64 `json:"sched_skipped_ticks"`
	BatchedCycles uint64 `json:"sched_batched_cycles"`
	// ReadsAll counts the modules scheduled with the conservative ReadsAll
	// fallback (re-evaluated on every wave in which anything changed).
	ReadsAll   uint64 `json:"readsall_modules"`
	TraceBytes uint64 `json:"trace_bytes"`
}

// kernelCounter is one named counter of a row.
type kernelCounter struct {
	name string
	v    uint64
}

// counters lists the row's counters under their JSON names, the unit the
// baseline gate compares.
func (r KernelBenchRow) counters() []kernelCounter {
	return []kernelCounter{
		{"cycles", r.Cycles},
		{"legacy_eval_calls", r.LegacyEvals},
		{"sched_eval_calls", r.SchedEvals},
		{"sched_settle_waves", r.SettleWaves},
		{"sched_skipped_evals", r.SkippedEvals},
		{"sched_skipped_ticks", r.SkippedTicks},
		{"sched_batched_cycles", r.BatchedCycles},
		{"readsall_modules", r.ReadsAll},
		{"trace_bytes", r.TraceBytes},
	}
}

// KernelTable is the kernel table with the parameters that determine it:
// the BENCH_kernel.json layout.
type KernelTable struct {
	Scale int              `json:"scale"`
	Seed  int64            `json:"seed"`
	Rows  []KernelBenchRow `json:"rows"`
}

// KernelBench runs two R2 recordings per application: one on the legacy
// kernel and one instrumented scheduler run. Both must pass the golden check
// and agree on the cycle count and trace size, or the row errors out.
//
// The returned snapshot merges every instrumented run's metrics, each
// app's series carrying an app=<name> const label — the artifact vidi-top
// and the CI bench job consume.
func KernelBench(appNames []string, scale int, seed int64) (*KernelTable, *telemetry.Snapshot, error) {
	run := func(app string, legacy bool, sink *telemetry.Sink) (*RunResult, error) {
		out, err := Run(RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R2, LegacyKernel: legacy, Telemetry: sink})
		if err == nil && out.CheckErr != nil {
			err = fmt.Errorf("golden check: %w", out.CheckErr)
		}
		return out, err
	}
	tab := &KernelTable{Scale: scale, Seed: seed, Rows: make([]KernelBenchRow, 0, len(appNames))}
	var snaps []*telemetry.Snapshot
	for _, app := range appNames {
		leg, err := run(app, true, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("kernel bench %s legacy: %w", app, err)
		}
		sink := telemetry.New(telemetry.WithConstLabels(telemetry.L("app", app)))
		sch, err := run(app, false, sink)
		if err != nil {
			return nil, nil, fmt.Errorf("kernel bench %s scheduler: %w", app, err)
		}
		legBytes, schBytes := leg.Trace.SizeBytes(), sch.Trace.SizeBytes()
		if sch.Cycles != leg.Cycles || schBytes != legBytes {
			return nil, nil, fmt.Errorf("kernel bench %s: kernels diverge (legacy %d cycles %d trace bytes, scheduler %d cycles %d trace bytes)",
				app, leg.Cycles, legBytes, sch.Cycles, schBytes)
		}
		snaps = append(snaps, sink.Gather())
		st := sch.Stats
		tab.Rows = append(tab.Rows, KernelBenchRow{
			App:           app,
			Cycles:        sch.Cycles,
			LegacyEvals:   leg.Stats.EvalCalls,
			SchedEvals:    st.EvalCalls,
			SettleWaves:   st.SettleWaves,
			SkippedEvals:  st.SkippedEvals,
			SkippedTicks:  st.SkippedTicks,
			BatchedCycles: st.BatchedCycles,
			ReadsAll:      uint64(len(st.ReadsAllModules)),
			TraceBytes:    uint64(schBytes),
		})
	}
	merged, err := telemetry.MergeSnapshots(snaps...)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel bench: merging snapshots: %w", err)
	}
	return tab, merged, nil
}

// FormatKernelBench renders the kernel counter table.
func FormatKernelBench(rows []KernelBenchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %8s %12s %9s %9s %12s %12s %8s %8s %10s\n",
		"App", "cycles", "legacy evals", "evals", "waves", "skip evals", "skip ticks", "batched", "readsall", "trace B")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8d %12d %9d %9d %12d %12d %8d %8d %10d\n",
			r.App, r.Cycles, r.LegacyEvals, r.SchedEvals, r.SettleWaves,
			r.SkippedEvals, r.SkippedTicks, r.BatchedCycles, r.ReadsAll, r.TraceBytes)
	}
	return b.String()
}

// WriteKernelBenchJSON writes the table as the BENCH_kernel.json artifact.
func WriteKernelBenchJSON(path string, tab *KernelTable) error {
	buf, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// LoadKernelBenchJSON reads a committed BENCH_kernel.json.
func LoadKernelBenchJSON(path string) (*KernelTable, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tab KernelTable
	if err := json.Unmarshal(buf, &tab); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tab, nil
}

// CheckKernelBaseline is CI's exact kernel gate. It refuses a baseline made
// with a different seed, scale or app set, and fails on any counter that
// differs, naming the app, the counter and both values. Every counter is
// deterministic, so an unchanged tree always passes; an intended change is
// accepted by committing the fresh table.
func CheckKernelBaseline(baseline, run *KernelTable) error {
	if baseline.Seed != run.Seed || baseline.Scale != run.Scale {
		return fmt.Errorf("kernel baseline is for seed %d scale %d, this run is seed %d scale %d",
			baseline.Seed, baseline.Scale, run.Seed, run.Scale)
	}
	base := make(map[string]KernelBenchRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.App] = r
	}
	var diffs []string
	for _, r := range run.Rows {
		b, ok := base[r.App]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: not in baseline", r.App))
			continue
		}
		delete(base, r.App)
		bc := b.counters()
		for i, c := range r.counters() {
			if c.v != bc[i].v {
				diffs = append(diffs, fmt.Sprintf("%s: %s baseline %d, run %d", r.App, c.name, bc[i].v, c.v))
			}
		}
	}
	for _, b := range baseline.Rows {
		if _, missing := base[b.App]; missing {
			diffs = append(diffs, fmt.Sprintf("%s: in baseline, not in this run", b.App))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("kernel counters differ from the baseline (commit the fresh table if the change is intended):\n  %s",
			strings.Join(diffs, "\n  "))
	}
	return nil
}
