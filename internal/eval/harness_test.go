package eval

import (
	"errors"
	"testing"

	"vidi/internal/core"
	"vidi/internal/trace"
)

func TestDMARecordReplayEndToEnd(t *testing.T) {
	report, rec, rep, err := RecordReplay("dma", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Trace.TotalTransactions() == 0 {
		t.Fatal("empty reference trace")
	}
	t.Logf("dma: %d cycles, %d transactions, %d trace bytes; replay %d cycles; report: %s",
		rec.Cycles, rec.Trace.TotalTransactions(), rec.Trace.SizeBytes(), rep.Cycles, report)
	// The polling variant diverges on the slow (DDR-path) tasks: the
	// replayed poll lands before the copy completes, changing the polled
	// status value and, downstream, the read-back content — the §3.6
	// mechanism. All divergences must be content divergences on the ocl
	// (status poll) or pcis (read-back) read channels.
	for _, d := range report.Divergences {
		if d.Kind != core.ContentDivergence || (d.Name != "ocl.R" && d.Name != "pcis.R") {
			t.Fatalf("unexpected divergence: %s", d.Format())
		}
	}
	if report.Clean() {
		t.Log("note: polling variant replayed cleanly at this scale")
	}
}

func TestDMAInterruptVariantIsDivergenceFree(t *testing.T) {
	report, rec, _, err := RecordReplay("dma-irq", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("interrupt variant diverged:\n%s", report)
	}
	if rec.Sys.IRQReceived == 0 {
		t.Fatal("no interrupts delivered")
	}
}

func TestDMATransparentMatchesRecorded(t *testing.T) {
	r1, err := Run(RunConfig{App: "dma", Scale: 1, Seed: 7, Cfg: R1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CheckErr != nil {
		t.Fatalf("R1 golden check: %v", r1.CheckErr)
	}
	r2, err := Run(RunConfig{App: "dma", Scale: 1, Seed: 7, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CheckErr != nil {
		t.Fatalf("R2 golden check: %v", r2.CheckErr)
	}
	if r2.Cycles < r1.Cycles {
		t.Logf("note: recording run faster than native (%d vs %d)", r2.Cycles, r1.Cycles)
	}
	overhead := 100 * (float64(r2.Cycles) - float64(r1.Cycles)) / float64(r1.Cycles)
	t.Logf("dma: R1=%d cycles, R2=%d cycles, overhead=%.2f%%", r1.Cycles, r2.Cycles, overhead)
	if overhead > 50 {
		t.Fatalf("recording overhead implausibly high: %.1f%%", overhead)
	}
}

// TestReplayVerifyRejectsInvalidTrace feeds ReplayVerify structurally broken
// traces — the shapes that used to reach the replayers and panic with an
// index out of range — and demands a typed *InvalidTraceError wrapping the
// trace.Validate error instead.
func TestReplayVerifyRejectsInvalidTrace(t *testing.T) {
	rec, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Trace.Meta
	// The first channel start in the recording: packet pi starts input ii.
	pi, ii := -1, -1
	for i, p := range rec.Trace.Packets {
		for in := range m.InputChannels() {
			if pi < 0 && p.Starts.Get(in) {
				pi, ii = i, in
			}
		}
	}
	if pi < 0 {
		t.Fatal("no input start in the recording")
	}
	ci := m.InputChannels()[ii]
	// insert puts p in front of packet at.
	insert := func(tr *trace.Trace, at int, p trace.CyclePacket) {
		tr.Packets = append(tr.Packets[:at], append([]trace.CyclePacket{p}, tr.Packets[at:]...)...)
	}
	cases := []struct {
		name   string
		mutate func(tr *trace.Trace)
	}{
		{"start without content", func(tr *trace.Trace) {
			p := trace.NewCyclePacket(m)
			p.Starts.Set(ii)
			insert(tr, pi, p)
		}},
		{"start while in flight", func(tr *trace.Trace) {
			p := trace.NewCyclePacket(m)
			p.Starts.Set(ii)
			p.Contents = [][]byte{make([]byte, m.Channels[ci].Width)}
			insert(tr, pi, p)
		}},
		{"input end while idle", func(tr *trace.Trace) {
			p := trace.NewCyclePacket(m)
			p.Ends.Set(ci)
			insert(tr, 0, p)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &trace.Trace{Meta: m}
			for _, p := range rec.Trace.Packets {
				tr.Append(p.Copy())
			}
			tc.mutate(tr)
			verr := tr.Validate()
			if verr == nil {
				t.Fatal("mutation left a valid trace")
			}
			_, _, err := ReplayVerify("dma-irq", 1, 7, tr, 0)
			var invalid *InvalidTraceError
			if !errors.As(err, &invalid) {
				t.Fatalf("ReplayVerify = %v, want *InvalidTraceError", err)
			}
			if invalid.Err.Error() != verr.Error() || errors.Unwrap(err) != invalid.Err {
				t.Fatalf("error %v does not wrap the validation error %v", err, verr)
			}
		})
	}
}
