package shell

import (
	"vidi/internal/axi"
	"vidi/internal/telemetry"
)

// bindTelemetry attaches the sink to the shell's engines and the CPU agent.
// Engine counters are shards owned by the engine's own Tick; the IRQ
// total is folded from the existing IRQReceived field at scrape time.
func (sys *System) bindTelemetry(sink *telemetry.Sink) {
	now := sys.Sim.Cycle

	bindW := func(m *axi.WriteManager, name string) {
		lbl := telemetry.L("engine", name)
		m.Bursts = sink.Counter("vidi_axi_bursts_total",
			"AXI bursts completed by shell engines.", lbl)
		m.Beats = sink.Counter("vidi_axi_beats_total",
			"AXI data beats moved by shell engines.", lbl)
		if sink.Tracing() {
			m.Track = sink.Track("shell.engines", name)
			m.Now = now
		}
	}
	bindR := func(m *axi.ReadManager, name string) {
		lbl := telemetry.L("engine", name)
		m.Bursts = sink.Counter("vidi_axi_bursts_total",
			"AXI bursts completed by shell engines.", lbl)
		m.Beats = sink.Counter("vidi_axi_beats_total",
			"AXI data beats moved by shell engines.", lbl)
		if sink.Tracing() {
			m.Track = sink.Track("shell.engines", name)
			m.Now = now
		}
	}
	bindSub := func(s *axi.MemSubordinate, name string) {
		lbl := telemetry.L("engine", name)
		s.Bursts = sink.Counter("vidi_axi_bursts_total",
			"AXI bursts completed by shell engines.", lbl)
		s.Beats = sink.Counter("vidi_axi_beats_total",
			"AXI data beats moved by shell engines.", lbl)
	}

	bindSub(sys.DDRSub, "ddr-ctrl")
	if sys.hostMem != nil {
		bindSub(sys.hostMem, "host-dram")
	}

	if c := sys.CPU; c != nil {
		for i := range c.liteW {
			bindW(c.liteW[i], c.liteW[i].Name())
			bindR(c.liteR[i], c.liteR[i].Name())
		}
		bindW(c.dmaW, c.dmaW.Name())
		bindR(c.dmaR, c.dmaR.Name())
		c.tel = sink
		c.jitterHist = sink.Quantile("vidi_cpu_jitter_cycles",
			"Seeded inter-op delays drawn by CPU agent threads.")
	}

	irqs := sink.Counter("vidi_shell_irqs_total",
		"User interrupts delivered to the environment.")
	var lastIRQs int
	sink.OnGather(func() {
		irqs.Add(uint64(sys.IRQReceived - lastIRQs))
		lastIRQs = sys.IRQReceived
	})
}
