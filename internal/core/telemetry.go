package core

import (
	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// This file wires the shim into a telemetry.Sink. Every component keeps its
// counters on plain fields written only from its own Tick (the recording and
// replay stacks are each tied into one partition, so a single goroutine owns
// them at a time); bindTelemetry registers a fold-the-deltas callback that
// copies them into the sink at scrape time. Nothing on the hot path gains
// synchronisation or allocation, which keeps instrumented golden runs
// byte-identical, including under -race.

// monGather tracks one monitor's delta state between scrapes.
type monGather struct {
	m                          *Monitor
	observed, recorded, gapped *telemetry.Counter
	lastObserved               uint64
	lastRecorded               uint64
	lastGapped                 uint64
}

// storeGather tracks one trace store's delta state between scrapes.
type storeGather struct {
	s                       *Store
	stored, retries, stalls *telemetry.Counter
	lastStored              uint64
	lastRetries             uint64
	lastStalls              uint64
}

// repGather tracks one replayer's delta state between scrapes.
type repGather struct {
	r          *Replayer
	gate       *telemetry.Counter
	lastStalls uint64
}

// bindTelemetry registers the shim's series with the sink and (with tracing)
// gives every interposed boundary channel a Perfetto lane — one track group
// per AXI interface — carrying one span per transaction.
func (sh *Shim) bindTelemetry(s *sim.Simulator, sink *telemetry.Sink) {
	var mons []monGather
	for _, m := range sh.monitors {
		if m.ci < 0 {
			continue // excluded interfaces stay uninstrumented passthroughs
		}
		m.now = s.Cycle
		if sink.Tracing() {
			m.track = sink.Track("axi."+m.bc.Info.Interface, m.bc.Info.Name)
		}
		lbl := telemetry.L("channel", m.bc.Info.Name)
		mons = append(mons, monGather{
			m: m,
			observed: sink.Counter("vidi_monitor_observed_events_total",
				"Receiver-side handshake events (starts and ends) seen at the boundary.", lbl),
			recorded: sink.Counter("vidi_monitor_recorded_events_total",
				"Boundary events logged to the trace encoder.", lbl),
			gapped: sink.Counter("vidi_monitor_gapped_ends_total",
				"Output ends whose contents were shed in lossy (degraded) mode.", lbl),
		})
	}

	var (
		encDenials, encGaps, encUnrecorded *telemetry.Counter
		encBuffered                        *telemetry.Gauge
		lastDenials, lastGaps, lastUnrec   uint64
	)
	if sh.encoder != nil {
		encDenials = sink.Counter("vidi_encoder_denials_total",
			"CanAccept refusals — cycles a monitor waited for encoder space.")
		encGaps = sink.Counter("vidi_encoder_gaps_total",
			"Distinct lossy gaps entered by degraded recording.")
		encUnrecorded = sink.Counter("vidi_encoder_unrecorded_ends_total",
			"Output end contents shed while lossy.")
		encBuffered = sink.Gauge("vidi_encoder_buffered_bytes",
			"Trace bytes staged on-FPGA at the last scrape.")
	}

	var stores []storeGather
	for _, st := range []*Store{sh.recStore, sh.repStore} {
		if st == nil {
			continue
		}
		lbl := telemetry.L("store", st.name)
		stores = append(stores, storeGather{
			s: st,
			stored: sink.Counter("vidi_store_stored_bytes_total",
				"Trace bytes moved through the storage transport.", lbl),
			retries: sink.Counter("vidi_store_retries_total",
				"Failed transfer attempts that scheduled a backoff retry.", lbl),
			stalls: sink.Counter("vidi_store_stalls_total",
				"Accept calls rejected while unavailable (link starvation or backoff).", lbl),
		})
	}

	var (
		reps            []repGather
		fetchStalls     *telemetry.Counter
		lastFetchStalls uint64
	)
	for _, r := range sh.replayers {
		reps = append(reps, repGather{
			r: r,
			gate: sink.Counter("vidi_replay_gate_stalls_total",
				"Trace items that parked on the happens-before precondition (once per item).",
				telemetry.L("channel", r.bc.Info.Name)),
		})
	}
	if sh.decoder != nil {
		fetchStalls = sink.Counter("vidi_replay_fetch_stalls_total",
			"Decoder cycles that exhausted the trace fetch bandwidth.")
	}

	sink.OnGather(func() {
		for i := range mons {
			g := &mons[i]
			g.observed.Add(g.m.observed - g.lastObserved)
			g.recorded.Add(g.m.recorded - g.lastRecorded)
			g.gapped.Add(g.m.gapped - g.lastGapped)
			g.lastObserved, g.lastRecorded, g.lastGapped = g.m.observed, g.m.recorded, g.m.gapped
		}
		if sh.encoder != nil {
			e := sh.encoder
			encDenials.Add(e.Denials - lastDenials)
			encGaps.Add(e.GapCount - lastGaps)
			encUnrecorded.Add(e.UnrecordedEnds - lastUnrec)
			lastDenials, lastGaps, lastUnrec = e.Denials, e.GapCount, e.UnrecordedEnds
			encBuffered.Set(float64(e.BufferedBytes()))
		}
		for i := range stores {
			g := &stores[i]
			g.stored.Add(g.s.StoredBytes - g.lastStored)
			g.retries.Add(g.s.Retries - g.lastRetries)
			g.stalls.Add(g.s.Stalls - g.lastStalls)
			g.lastStored, g.lastRetries, g.lastStalls = g.s.StoredBytes, g.s.Retries, g.s.Stalls
		}
		for i := range reps {
			g := &reps[i]
			g.gate.Add(g.r.gateStalls - g.lastStalls)
			g.lastStalls = g.r.gateStalls
		}
		if sh.decoder != nil {
			fetchStalls.Add(sh.decoder.fetchStalls - lastFetchStalls)
			lastFetchStalls = sh.decoder.fetchStalls
		}
	})
}
