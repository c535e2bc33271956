package eval

import (
	"errors"
	"fmt"
	"strings"

	"vidi/internal/core"
	"vidi/internal/fault"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// FaultRow is one cell of the fault matrix: one fault class injected into
// one application's record/replay workflow.
type FaultRow struct {
	App   string
	Class fault.Class
	// Outcome summarizes how the system rode out (or loudly detected) the
	// fault: "clean", "degraded(N)", "detected(...)".
	Outcome string
	Detail  string
	// Silent marks the one unacceptable result: the fault corrupted the
	// workflow and no mechanism — typed error, divergence report, golden
	// check, unrecorded count — surfaced it.
	Silent bool
	// Telemetry is the faulted recording run's metrics snapshot, attached
	// whenever the scenario failed (Silent) so the failure report carries
	// the gap/retry/injection counts alongside the verdict. Nil on healthy
	// rows and for the offline transport classes.
	Telemetry *telemetry.Snapshot
}

// DefaultFaultApps is the fault-matrix application list: the interrupt
// variant of the DMA loopback (divergence-free baseline, so any divergence
// is fault-induced) plus a compute app exercising on-card DRAM.
func DefaultFaultApps() []string { return []string{"dma-irq", "digitr"} }

// faultBufBytes is the staging capacity used in the matrix. It is sized
// well below the default so that a storage brownout genuinely fills the
// buffer and drives recording through the degraded (lossy) path.
const faultBufBytes = 4 << 10

// FaultMatrix injects every fault class into every app's record/replay
// workflow and reports how the resilient transport handled it. All faults
// are scheduled deterministically from seedBase, so the matrix is exactly
// reproducible.
func FaultMatrix(appNames []string, scale int, seedBase int64) ([]FaultRow, error) {
	if len(appNames) == 0 {
		appNames = DefaultFaultApps()
	}
	var rows []FaultRow
	for _, app := range appNames {
		for _, class := range fault.Classes() {
			row, err := faultCell(app, class, scale, seedBase)
			if err != nil {
				return rows, fmt.Errorf("fault matrix %s/%s: %w", app, class, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// faultCell runs one (app, class) scenario.
func faultCell(app string, class fault.Class, scale int, seedBase int64) (FaultRow, error) {
	row := FaultRow{App: app, Class: class}
	plan := fault.NewPlan(seedBase^int64(class+1)*104729, class)

	switch class {
	case fault.BitFlip, fault.Truncate:
		// Offline transport corruption: record cleanly, mutate the framed
		// byte stream in transit, and demand the decoder detects it.
		rec, err := Run(RunConfig{App: app, Scale: scale, Seed: seedBase, Cfg: R2})
		if err != nil {
			return row, err
		}
		if rec.CheckErr != nil {
			return row, fmt.Errorf("baseline recording failed golden check: %w", rec.CheckErr)
		}
		frames := rec.Trace.Frames()
		if class == fault.BitFlip {
			frames = plan.CorruptFrames(frames)
		} else {
			frames = plan.TruncateFrames(frames)
		}
		decoded, err := trace.FromFrames(frames)
		switch {
		case err == nil:
			// Decoding mutated frames without an error is silent corruption
			// unless the mutation was somehow reconstructed bit-exactly.
			if string(mustBytes(decoded)) == string(mustBytes(rec.Trace)) {
				row.Outcome = "clean"
				row.Detail = "mutation did not alter the decoded trace"
			} else {
				row.Outcome = "SILENT"
				row.Detail = "corrupted frames decoded without error"
				row.Silent = true
			}
		case errors.Is(err, trace.ErrCorrupt):
			row.Outcome = "detected"
			row.Detail = err.Error()
		default:
			row.Outcome = "SILENT"
			row.Detail = fmt.Sprintf("untyped decode error: %v", err)
			row.Silent = true
		}
		return row, nil
	}

	// Online classes: record under fault, then replay the result cleanly
	// and compare. The run is instrumented so a failing scenario can dump
	// what the fault actually did (gaps, retries, injections by kind).
	sink := telemetry.New()
	rc := RunConfig{
		App: app, Scale: scale, Seed: seedBase, Cfg: R2,
		FaultPlan: plan, Telemetry: sink,
	}
	if class == fault.LinkBrownout {
		// The brownout starves the store; degraded recording plus a small
		// staging buffer turns that into a survivable lossy gap instead of
		// an application-wide stall.
		rc.DegradedRecording = true
		rc.BufBytes = faultBufBytes
	}
	rec, err := Run(rc)
	if err != nil {
		// A typed, loud failure (e.g. an outage outlasting the retry
		// budget) is a detection, not a silence.
		if errors.Is(err, core.ErrStoreFault) {
			row.Outcome = "detected"
			row.Detail = err.Error()
			return row, nil
		}
		return row, err
	}
	if rec.CheckErr != nil {
		row.Outcome = "SILENT"
		row.Detail = fmt.Sprintf("golden check failed without a reported fault: %v", rec.CheckErr)
		row.Silent = true
		failTelemetry(&row, sink)
		return row, nil
	}
	report, _, err := ReplayVerify(app, scale, seedBase, rec.Trace, 0)
	var invalid *InvalidTraceError
	if errors.As(err, &invalid) {
		row.Outcome = "SILENT"
		row.Detail = fmt.Sprintf("recorded trace failed validation: %v", invalid.Err)
		row.Silent = true
		failTelemetry(&row, sink)
		return row, nil
	}
	if err != nil {
		return row, err
	}
	if !report.Clean() {
		row.Outcome = "SILENT"
		row.Detail = fmt.Sprintf("fault leaked into replay: %d divergence(s)", len(report.Divergences))
		row.Silent = true
		failTelemetry(&row, sink)
		return row, nil
	}

	var bits []string
	if st := rec.Shim.Store(); st != nil {
		if st.Retries > 0 {
			bits = append(bits, fmt.Sprintf("%d retries", st.Retries))
		}
		if st.Stalls > 0 {
			bits = append(bits, fmt.Sprintf("%d stalls", st.Stalls))
		}
	}
	if u := report.Unrecorded; u > 0 {
		row.Outcome = fmt.Sprintf("degraded(%d)", u)
		bits = append(bits, fmt.Sprintf("%d transactions unrecorded, replay exact", u))
	} else {
		row.Outcome = "clean"
	}
	row.Detail = strings.Join(bits, ", ")
	return row, nil
}

// mustBytes serializes a trace, panicking on the (impossible) encode error.
func mustBytes(t *trace.Trace) []byte { return t.Bytes() }

// failTelemetry attaches the instrumented run's snapshot to a failing row
// and appends the failure-relevant counters to its detail, so the matrix
// report shows what the fault actually did to the transport.
func failTelemetry(row *FaultRow, sink *telemetry.Sink) {
	snap := sink.Gather()
	row.Telemetry = snap
	row.Detail += "; telemetry: " + TelemetrySummary(snap)
}

// TelemetrySummary compacts a snapshot's fault-relevant counters — lossy
// gaps, shed contents, store retries and stalls, and injections by kind —
// into one report line.
func TelemetrySummary(snap *telemetry.Snapshot) string {
	parts := []string{
		fmt.Sprintf("gaps=%.0f", snap.Total("vidi_encoder_gaps_total")),
		fmt.Sprintf("unrecorded=%.0f", snap.Total("vidi_encoder_unrecorded_ends_total")),
		fmt.Sprintf("retries=%.0f", snap.Total("vidi_store_retries_total")),
		fmt.Sprintf("stalls=%.0f", snap.Total("vidi_store_stalls_total")),
	}
	if f := snap.Family("vidi_fault_injections_total"); f != nil {
		for _, se := range f.Series { // already deterministically ordered
			parts = append(parts, fmt.Sprintf("injections{%s}=%.0f", se.Label("kind"), se.Value))
		}
	}
	return strings.Join(parts, " ")
}

// FormatFaultMatrix renders the matrix with a silent-divergence tally — the
// number that must be zero for the resilient transport to be trusted.
func FormatFaultMatrix(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-13s %-14s %s\n", "App", "Fault", "Outcome", "Detail")
	silent := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-13s %-14s %s\n", r.App, r.Class, r.Outcome, r.Detail)
		if r.Silent {
			silent++
		}
	}
	fmt.Fprintf(&b, "%d silent divergences across %d scenarios\n", silent, len(rows))
	return b.String()
}
