package eval

import (
	"bytes"
	"errors"
	"testing"

	"vidi/internal/core"
	"vidi/internal/fault"
	"vidi/internal/trace"
)

// brownoutConfig is the degraded-recording scenario used across the tests:
// a PCIe brownout starves the store while a deliberately small staging
// buffer forces the encoder through the lossy path.
func brownoutConfig(app string, seed int64) RunConfig {
	return RunConfig{
		App: app, Scale: 1, Seed: seed, Cfg: R2,
		FaultPlan:         fault.NewPlan(seed^int64(fault.LinkBrownout+1)*104729, fault.LinkBrownout),
		DegradedRecording: true,
		BufBytes:          faultBufBytes,
	}
}

// TestDegradedRecordingReplaysExactly is the headline robustness property:
// a recording that went lossy under storage back-pressure still replays
// exactly, with the gap surfaced as an explicit unrecorded count rather
// than as spurious divergences.
func TestDegradedRecordingReplaysExactly(t *testing.T) {
	rec, err := Run(brownoutConfig("dma-irq", 42))
	if err != nil {
		t.Fatalf("degraded recording: %v", err)
	}
	if rec.CheckErr != nil {
		t.Fatalf("golden check under brownout: %v", rec.CheckErr)
	}
	if got := rec.Trace.LossyPackets(); got == 0 {
		t.Fatalf("brownout never drove recording lossy (no gap markers)")
	}
	unrec := rec.Trace.UnrecordedTransactions()
	if unrec == 0 {
		t.Fatalf("gap contains no unrecorded transactions; scenario too mild")
	}
	// ReplayVerify validates the lossy trace before replaying it.
	report, _, err := ReplayVerify("dma-irq", 1, 42, rec.Trace, 0)
	if err != nil {
		t.Fatalf("replay of degraded trace: %v", err)
	}
	if !report.Clean() {
		t.Fatalf("degraded trace replay diverged:\n%s", report)
	}
	if report.Unrecorded != unrec {
		t.Fatalf("report.Unrecorded = %d, trace says %d", report.Unrecorded, unrec)
	}
	if s := report.String(); !bytes.Contains([]byte(s), []byte("unrecorded (degraded)")) {
		t.Fatalf("report does not surface the degraded count: %q", s)
	}
}

// TestFaultScheduleDeterminism: the same seed must reproduce the faulty
// execution byte-for-byte — fault windows, degradation points, trace.
func TestFaultScheduleDeterminism(t *testing.T) {
	r1, err := Run(brownoutConfig("dma-irq", 7))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(brownoutConfig("dma-irq", 7))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycles differ under same seed: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if !bytes.Equal(r1.Trace.Bytes(), r2.Trace.Bytes()) {
		t.Fatalf("same seed produced different faulty traces")
	}
}

// TestStoreOutageRetries: a transient storage outage rides the bounded
// retry path and completes with an intact trace.
func TestStoreOutageRetries(t *testing.T) {
	plan := fault.NewPlan(42^int64(fault.LinkOutage+1)*104729, fault.LinkOutage)
	rec, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 42, Cfg: R2, FaultPlan: plan})
	if err != nil {
		t.Fatalf("outage recording: %v", err)
	}
	if rec.CheckErr != nil {
		t.Fatalf("golden check: %v", rec.CheckErr)
	}
	if rec.Shim.Store().Retries == 0 {
		t.Fatalf("outage never exercised the retry path")
	}
	if err := rec.Trace.Validate(); err != nil {
		t.Fatalf("trace after retries: %v", err)
	}
}

// TestPermanentOutageFailsLoudly: an outage outlasting the retry budget
// must abort the run with the typed store fault, not wedge or silently
// drop trace data.
func TestPermanentOutageFailsLoudly(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Specs: []fault.Spec{{
		Class:    fault.LinkOutage,
		Windows:  []fault.Window{{Start: 0, End: 1 << 40}},
		Severity: 1,
	}}}
	_, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 42, Cfg: R2, FaultPlan: plan})
	if !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("permanent outage: got %v, want ErrStoreFault", err)
	}
	if findings := core.DiagnoseRunError(err); len(findings) == 0 || findings[0].Kind != core.StoreFault {
		t.Fatalf("DiagnoseRunError did not identify the store fault: %+v", findings)
	}
}

// TestTransportCorruptionDetected: frame-level corruption of a recorded
// trace must always surface as typed ErrCorrupt — never a wrong decode.
func TestTransportCorruptionDetected(t *testing.T) {
	rec, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 42, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(11, fault.BitFlip, fault.Truncate)
	if _, err := trace.FromFrames(plan.CorruptFrames(rec.Trace.Frames())); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("bit flips: got %v, want ErrCorrupt", err)
	}
	if _, err := trace.FromFrames(plan.TruncateFrames(rec.Trace.Frames())); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("truncation: got %v, want ErrCorrupt", err)
	}
}

// TestFaultMatrixNoSilentDivergences runs the full matrix on the quick app
// (both apps when not -short) and demands zero silent cells.
func TestFaultMatrixNoSilentDivergences(t *testing.T) {
	apps := []string{"dma-irq"}
	if !testing.Short() {
		apps = DefaultFaultApps()
	}
	rows, err := FaultMatrix(apps, 1, 42)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if len(rows) != len(apps)*len(fault.Classes()) {
		t.Fatalf("matrix has %d rows, want %d", len(rows), len(apps)*len(fault.Classes()))
	}
	degraded := false
	for _, r := range rows {
		if r.Silent {
			t.Errorf("SILENT cell %s/%s: %s", r.App, r.Class, r.Detail)
		}
		if r.Class == fault.LinkBrownout && r.Outcome != "clean" {
			degraded = true
		}
	}
	if !degraded {
		t.Errorf("no brownout cell exercised degraded recording")
	}
}
