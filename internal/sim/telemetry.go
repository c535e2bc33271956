package sim

import "vidi/internal/telemetry"

// SetTelemetry attaches a metrics/tracing sink to the simulator. The
// scheduler keeps its counters on plain fields and registers a
// fold-the-deltas callback that copies them into the sink when it is
// scraped — telemetry never adds synchronisation or allocation to the hot
// path, which is what keeps instrumented golden runs byte-identical.
//
// A nil sink detaches instrumentation. The schedule is rebuilt lazily on
// the next Step.
func (s *Simulator) SetTelemetry(sink *telemetry.Sink) {
	s.tel = sink
	s.invalidate()
}

// bindTelemetry registers the schedule's series with the sink: the module
// gauge set once, counters folded on scrape as deltas since the previous
// scrape (so re-gathering, as vidi-top does after -metrics, never
// double-counts), and with tracing one Perfetto "settle" track carrying
// coalesced busy spans.
func (sc *scheduler) bindTelemetry(sink *telemetry.Sink) {
	sc.timed = true
	sink.Gauge("vidi_sched_modules",
		"Registered modules in the schedule.").Set(float64(len(sc.mods)))
	cycles := sink.Gauge("vidi_sched_cycles",
		"Completed clock cycles at the last scrape.")
	folds := []struct {
		c    *telemetry.Counter
		v    *uint64
		last uint64
	}{
		{c: sink.Counter("vidi_sched_batched_cycles_total",
			"Clock cycles skipped wholesale by quiescence batching."), v: &sc.batchedCycles},
		{c: sink.Counter("vidi_sched_evals_total",
			"Module Eval invocations."), v: &sc.evals},
		{c: sink.Counter("vidi_sched_waves_total",
			"Settle iterations (delta cycles)."), v: &sc.waves},
		{c: sink.Counter("vidi_sched_skipped_evals_total",
			"Eval calls avoided relative to the legacy fixpoint."), v: &sc.skipped},
		{c: sink.Counter("vidi_sched_skipped_ticks_total",
			"Tick calls avoided by clock-edge gating."), v: &sc.tickSkips},
		{c: sink.Counter("vidi_sched_wakeups_total",
			"Event-driven pending marks (signal changes and Touch hooks)."), v: &sc.wakes},
		{c: sink.Counter("vidi_sched_busy_cycles_total",
			"Cycles in which at least one Eval ran; against vidi_sched_cycles this is the settle occupancy."), v: &sc.busyCycles},
		{c: sink.Counter("vidi_sched_eval_ns_total",
			"Wall-clock nanoseconds spent settling, sampled one cycle in 16 and scaled."), v: &sc.evalNS},
	}
	if sink.Tracing() {
		sc.track = sink.Track("scheduler", "settle")
	}
	sink.OnGather(func() {
		cycles.Set(float64(sc.sim.cycle))
		for i := range folds {
			f := &folds[i]
			f.c.Add(*f.v - f.last)
			f.last = *f.v
		}
		if sc.spanOpen {
			sc.track.Span("busy", sc.spanStart, sc.spanEnd)
			sc.spanOpen = false
		}
	})
}
