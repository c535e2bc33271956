package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vidi/internal/apps"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// goldenRun executes one R2 recording of app under the chosen kernel,
// dumping the boundary VCD, and returns the trace bytes, the VCD bytes and
// the cycle count.
func goldenRun(t *testing.T, app string, legacy bool) (traceBytes, vcdBytes []byte, cycles uint64) {
	t.Helper()
	vcd := filepath.Join(t.TempDir(), "dump.vcd")
	res, err := Run(RunConfig{
		App: app, Scale: 1, Seed: 7, Cfg: R2,
		LegacyKernel: legacy, VCDPath: vcd,
		// The golden runs double as the dynamic sensitivity audit: any
		// Eval touching a signal outside its declaration fails the test.
		SensitivityCheck: true,
	})
	if err != nil {
		t.Fatalf("%s (legacy=%v): %v", app, legacy, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("%s (legacy=%v): golden check: %v", app, legacy, res.CheckErr)
	}
	dump, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Bytes(), dump, res.Cycles
}

// TestKernelGoldenDeterminism is the scheduler's end-to-end regression: for
// every evaluation application, an R2 recording under the sensitivity
// scheduler must be byte-identical — trace and VCD waveform — to the same
// recording under the legacy fixpoint kernel, at the same cycle count.
func TestKernelGoldenDeterminism(t *testing.T) {
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			refTrace, refVCD, refCycles := goldenRun(t, app, true)
			gotTrace, gotVCD, gotCycles := goldenRun(t, app, false)
			if gotCycles != refCycles {
				t.Errorf("cycles: scheduler %d, legacy %d", gotCycles, refCycles)
			}
			if !bytes.Equal(gotTrace, refTrace) {
				t.Errorf("trace bytes differ (scheduler %d bytes, legacy %d bytes)",
					len(gotTrace), len(refTrace))
			}
			if !bytes.Equal(gotVCD, refVCD) {
				t.Errorf("VCD dumps differ (scheduler %d bytes, legacy %d bytes)",
					len(gotVCD), len(refVCD))
			}
		})
	}
}

// matrixRun is goldenRun with explicit worker-pool and partitioning-strategy
// knobs and without the sensitivity audit — the audit's dynamic probe forces
// sequential evaluation, and the whole point here is to exercise the
// parallel paths.
func matrixRun(t *testing.T, app string, legacy bool, workers int, coarse bool) (traceBytes, vcdBytes []byte, cycles uint64) {
	t.Helper()
	vcd := filepath.Join(t.TempDir(), "dump.vcd")
	res, err := Run(RunConfig{
		App: app, Scale: 1, Seed: 7, Cfg: R2,
		LegacyKernel: legacy, Workers: workers, CoarsePartitions: coarse,
		VCDPath: vcd,
	})
	if err != nil {
		t.Fatalf("%s (legacy=%v workers=%d coarse=%v): %v", app, legacy, workers, coarse, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("%s (legacy=%v workers=%d coarse=%v): golden check: %v", app, legacy, workers, coarse, res.CheckErr)
	}
	dump, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Bytes(), dump, res.Cycles
}

// TestKernelGoldenWorkerMatrix is the determinism matrix: for every
// registered application, the R2 recording must be byte-identical — trace
// and VCD waveform, at the same cycle count — between the legacy kernel and
// the scheduler at every swept worker-pool size, under both the fine and
// the coarse partitioning strategy. `make race-golden` runs it under the
// race detector, which is what certifies the parallel settle paths.
func TestKernelGoldenWorkerMatrix(t *testing.T) {
	workerSet := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 && !testing.Short() {
		workerSet = append(workerSet, n)
	}
	coarseSet := []bool{false, true}
	if testing.Short() {
		coarseSet = []bool{false}
	}
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			refTrace, refVCD, refCycles := matrixRun(t, app, true, 0, false)
			for _, coarse := range coarseSet {
				for _, w := range workerSet {
					gotTrace, gotVCD, gotCycles := matrixRun(t, app, false, w, coarse)
					if gotCycles != refCycles {
						t.Errorf("workers=%d coarse=%v: cycles %d, legacy %d", w, coarse, gotCycles, refCycles)
					}
					if !bytes.Equal(gotTrace, refTrace) {
						t.Errorf("workers=%d coarse=%v: trace bytes differ", w, coarse)
					}
					if !bytes.Equal(gotVCD, refVCD) {
						t.Errorf("workers=%d coarse=%v: VCD dump differs", w, coarse)
					}
				}
			}
		})
	}
}

// replayRun executes one R3 replay of rec under the chosen kernel, dumping
// the boundary VCD with the sensitivity audit armed, and returns the
// validation trace bytes, the VCD bytes and the kernel's counters.
func replayRun(t *testing.T, app string, rec *trace.Trace, legacy bool) (traceBytes, vcdBytes []byte, st sim.Stats) {
	t.Helper()
	vcd := filepath.Join(t.TempDir(), "dump.vcd")
	res, err := Run(RunConfig{
		App: app, Scale: 1, Seed: 7, Cfg: R3,
		ReplayTrace: rec, LegacyKernel: legacy, VCDPath: vcd,
		SensitivityCheck: true,
	})
	if err != nil {
		t.Fatalf("%s replay (legacy=%v): %v", app, legacy, err)
	}
	dump, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Bytes(), dump, res.Stats
}

// replayBatchFloor lists apps whose R3 replays must batch at least 90% of
// their cycles: the compute stretches between handshakes dominate them, so
// an ungated module added to the replay stack shows up here as a test
// failure instead of a silent order-of-magnitude slowdown.
var replayBatchFloor = map[string]bool{"sha": true, "render3d": true}

// slowLegacyReplays are the apps whose legacy-kernel replays take seconds;
// -short leaves them out.
var slowLegacyReplays = map[string]bool{"sssp": true, "faced": true, "mnet": true}

// TestKernelGoldenReplay extends the golden check through a full
// record/replay cycle: for every application, the validation trace, the VCD
// waveform and the cycle count of an R3 replay must not depend on which
// kernel ran the replay.
func TestKernelGoldenReplay(t *testing.T) {
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			if testing.Short() && slowLegacyReplays[app] {
				t.Skip("legacy-kernel replay takes seconds")
			}
			t.Parallel()
			rec, err := Run(RunConfig{App: app, Scale: 1, Seed: 7, Cfg: R2, SensitivityCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			refTrace, refVCD, ref := replayRun(t, app, rec.Trace, true)
			gotTrace, gotVCD, got := replayRun(t, app, rec.Trace, false)
			if got.Cycles != ref.Cycles {
				t.Errorf("cycles: scheduler %d, legacy %d", got.Cycles, ref.Cycles)
			}
			if !bytes.Equal(gotTrace, refTrace) {
				t.Errorf("R3 validation traces differ (scheduler %d bytes, legacy %d bytes)",
					len(gotTrace), len(refTrace))
			}
			if !bytes.Equal(gotVCD, refVCD) {
				t.Errorf("VCD dumps differ (scheduler %d bytes, legacy %d bytes)",
					len(gotVCD), len(refVCD))
			}
			if replayBatchFloor[app] && got.BatchedCycles*10 < got.Cycles*9 {
				t.Errorf("replay batched %d of %d cycles, want at least 90%%", got.BatchedCycles, got.Cycles)
			}
		})
	}
}

// TestReplayTelemetryKernelIndependent checks that the replay-side counters
// (gate stalls, fetch stalls) count events of the replayed execution, not
// Ticks: an R3 replay must report the same vidi_replay_* series under the
// legacy kernel, which ticks the coordinator every cycle, as under the
// scheduler, which ticks it only when woken.
func TestReplayTelemetryKernelIndependent(t *testing.T) {
	for _, app := range []string{"dma-irq", "sha"} {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			rec, err := Run(RunConfig{App: app, Scale: 1, Seed: 7, Cfg: R2})
			if err != nil {
				t.Fatal(err)
			}
			var snaps []*telemetry.Snapshot
			for _, legacy := range []bool{true, false} {
				sink := telemetry.New()
				if _, err := Run(RunConfig{
					App: app, Scale: 1, Seed: 7, Cfg: R3,
					ReplayTrace: rec.Trace, LegacyKernel: legacy, Telemetry: sink,
				}); err != nil {
					t.Fatalf("replay (legacy=%v): %v", legacy, err)
				}
				snaps = append(snaps, sink.Gather())
			}
			ref, got := replaySeries(snaps[0]), replaySeries(snaps[1])
			if len(ref) == 0 {
				t.Fatal("no vidi_replay_* series gathered")
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("vidi_replay_* series differ:\nscheduler %v\nlegacy    %v", got, ref)
			}
		})
	}
}

// replaySeries flattens a snapshot's vidi_replay_* counters into
// "family{labels}" → value.
func replaySeries(s *telemetry.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for _, f := range s.Families {
		if !strings.HasPrefix(f.Name, "vidi_replay_") {
			continue
		}
		for _, se := range f.Series {
			out[fmt.Sprintf("%s%v", f.Name, se.Labels)] = se.Value
		}
	}
	return out
}

// TestKernelStatsReported checks that a scheduler run surfaces meaningful
// counters: the dirty-set must actually skip work relative to the legacy
// fixpoint, across more than one partition.
func TestKernelStatsReported(t *testing.T) {
	res, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Cycles == 0 || st.EvalCalls == 0 || st.SettleWaves == 0 {
		t.Fatalf("empty stats: %v", st)
	}
	if st.SkippedEvals == 0 {
		t.Fatalf("scheduler skipped no evals: %v", st)
	}
	if st.Partitions < 2 {
		t.Fatalf("expected a partitioned design, got %v", st)
	}

	leg, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2, LegacyKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if leg.Stats.Partitions != 1 || leg.Stats.Workers != 1 {
		t.Fatalf("legacy kernel reported %v", leg.Stats)
	}
	if st.EvalCalls >= leg.Stats.EvalCalls {
		t.Errorf("scheduler made %d eval calls, legacy %d — no work saved",
			st.EvalCalls, leg.Stats.EvalCalls)
	}
}
