package core

import (
	"fmt"

	"vidi/internal/axi"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Mode selects what the shim does at the boundary.
type Mode int

const (
	// ModeOff makes Vidi transparent: monitors degrade to pure
	// passthroughs. This is configuration R1 of the paper's evaluation.
	ModeOff Mode = iota
	// ModeRecord records all boundary transactions. Configuration R2.
	ModeRecord
	// ModeReplay replays a previously recorded trace, recreating the
	// environment side of every boundary channel. With Options.Record also
	// set it simultaneously records the replayed execution (configuration
	// R3), producing the validation trace for divergence detection.
	ModeReplay
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeRecord:
		return "record"
	default:
		return "replay"
	}
}

// Options configures a Shim.
type Options struct {
	Mode Mode
	// ValidateOutputs makes output channel monitors record transaction
	// contents, enabling divergence detection (§3.6). The paper's
	// evaluation keeps this on in R2 and R3.
	ValidateOutputs bool
	// Record, with ModeReplay, also records the replayed execution
	// (configuration R3).
	Record bool
	// ReplayTrace is the trace to replay (required in ModeReplay).
	ReplayTrace *trace.Trace
	// BufBytes is the encoder staging buffer capacity, modelling on-FPGA
	// BRAM. Zero selects a 256 KiB default.
	BufBytes int
	// StoreBytesPerCycle bounds trace store throughput. Zero selects 22,
	// the paper's 5.5 GB/s PCIe budget at the 250 MHz kernel clock.
	StoreBytesPerCycle int
	// Link optionally shares a bandwidth bucket with the application's own
	// DMA traffic; trace bytes then contend with it, which is the dominant
	// source of recording overhead.
	Link *axi.TokenBucket
	// StoreAndForward selects the conservative monitor that adds one cycle
	// of latency per input transaction (ablation; default cut-through).
	StoreAndForward bool
	// EmitIdlePackets disables the event-only cycle-packet optimization
	// (ablation; see Encoder.EmitIdlePackets).
	EmitIdlePackets bool
	// OnlyInterfaces restricts Vidi to the named interfaces (§5.1, §5.5:
	// "developers can configure Vidi to only record/replay the AXI
	// interfaces used by the application", reducing overhead). Channels of
	// other interfaces become transparent passthroughs and do not appear
	// in the trace. Nil selects every boundary channel.
	OnlyInterfaces []string
	// DegradedRecording enables graceful degradation: under sustained
	// back-pressure the encoder sheds output-validation contents (lossy gap
	// packets) instead of stalling the application indefinitely. Replay
	// stays exact; divergence detection reports the gap transactions as
	// unrecorded.
	DegradedRecording bool
	// StallBudgetCycles is the back-pressure streak tolerated before
	// degraded recording goes lossy. Zero selects the encoder default.
	StallBudgetCycles int
	// StoreFaultFn injects storage transport faults: consulted once per
	// attempted transfer with the store-local cycle, returning false to
	// fail it. Transient faults are retried with bounded exponential
	// backoff; a fault persisting past the retry budget aborts the run with
	// a StoreFaultError.
	StoreFaultFn func(cycle uint64) bool
	// StoreRetryJitterSeed arms deterministic seeded jitter on the trace
	// store's retry backoff (see Store.RetryJitterSeed). Zero keeps the
	// unjittered golden schedule.
	StoreRetryJitterSeed int64
	// Telemetry, when non-nil, receives the shim's metrics and transaction
	// spans. Counters stay on plain component fields and are folded into the
	// sink only at scrape time, so recording and replay behaviour is
	// byte-identical with or without a sink.
	Telemetry *telemetry.Sink
}

// interfaceEnabled reports whether a channel's interface is selected.
func (o *Options) interfaceEnabled(iface string) bool {
	if o.OnlyInterfaces == nil {
		return true
	}
	for _, n := range o.OnlyInterfaces {
		if n == iface {
			return true
		}
	}
	return false
}

// Shim is the deployed Vidi instance: the monitors, encoder, store, decoder
// and replayers assembled around a boundary, mirroring Fig 3 of the paper.
type Shim struct {
	opts     Options
	boundary *Boundary

	monitors  []*Monitor
	encoder   *Encoder
	recStore  *Store
	decoder   *Decoder
	repStore  *Store
	replayers []*Replayer
	coord     *Coordinator
}

// DefaultBufBytes is the default encoder staging capacity. The paper's
// prototype stages in on-FPGA BRAM; scaled to this simulator's workload
// sizes, 16 KiB keeps the same buffer-to-trace proportions, so sustained
// bursts genuinely exercise the back-pressure path.
const DefaultBufBytes = 16 << 10

// DefaultStoreBytesPerCycle is the default trace store bandwidth
// (5.5 GB/s at 250 MHz ≈ 22 B/cycle).
const DefaultStoreBytesPerCycle = 22

// NewShim builds and registers a Vidi shim over boundary b on simulator s.
func NewShim(s *sim.Simulator, b *Boundary, opts Options) (*Shim, error) {
	if opts.BufBytes == 0 {
		opts.BufBytes = DefaultBufBytes
	}
	if opts.StoreBytesPerCycle == 0 {
		opts.StoreBytesPerCycle = DefaultStoreBytesPerCycle
	}
	sh := &Shim{opts: opts, boundary: b}

	// The effective boundary covers only the selected interfaces; excluded
	// channels get permanent transparent passthroughs.
	eff := b
	var excluded []BoundaryChannel
	if opts.OnlyInterfaces != nil {
		eff = NewBoundary()
		for _, bc := range b.Channels() {
			if opts.interfaceEnabled(bc.Info.Interface) {
				eff.chans = append(eff.chans, bc)
			} else {
				excluded = append(excluded, bc)
			}
		}
		if len(eff.chans) == 0 {
			return nil, fmt.Errorf("core: OnlyInterfaces %v selects no boundary channels", opts.OnlyInterfaces)
		}
	}

	recording := opts.Mode == ModeRecord || (opts.Mode == ModeReplay && opts.Record)
	var enc *Encoder
	if recording {
		meta := eff.Meta(opts.ValidateOutputs)
		sh.recStore = NewStore(opts.StoreBytesPerCycle, opts.Link)
		sh.recStore.FaultFn = opts.StoreFaultFn
		sh.recStore.RetryJitterSeed = opts.StoreRetryJitterSeed
		enc = NewEncoder(meta, sh.recStore, opts.BufBytes)
		enc.EmitIdlePackets = opts.EmitIdlePackets
		enc.Degraded = opts.DegradedRecording
		enc.StallBudget = opts.StallBudgetCycles
		sh.encoder = enc
		// A storage transport that dies permanently must abort the run with
		// a typed error rather than wedge the encoder until the watchdog
		// reports a deadlock.
		s.AddChecker(storeChecker{s: sh.recStore, site: "record-store"})
	}

	// Monitors interpose on every selected channel in all modes; with a nil
	// encoder they are transparent passthroughs. Excluded channels are
	// always passthrough.
	for ci, bc := range eff.Channels() {
		m := newMonitor(ci, bc, enc, opts.StoreAndForward)
		sh.monitors = append(sh.monitors, m)
		s.Register(m)
	}
	for _, bc := range excluded {
		m := newMonitor(-1, bc, nil, false)
		sh.monitors = append(sh.monitors, m)
		s.Register(m)
	}

	if opts.Mode == ModeReplay {
		if opts.ReplayTrace == nil {
			return nil, fmt.Errorf("core: ModeReplay requires a ReplayTrace")
		}
		if got, want := len(opts.ReplayTrace.Meta.Channels), len(eff.Channels()); got != want {
			return nil, fmt.Errorf("core: replay trace has %d channels, boundary has %d", got, want)
		}
		for i, c := range opts.ReplayTrace.Meta.Channels {
			if bc := eff.Channels()[i]; c.Name != bc.Info.Name || c.Width != bc.Info.Width || c.Dir != bc.Info.Dir {
				return nil, fmt.Errorf("core: replay trace channel %d is %+v, boundary has %+v", i, c, bc.Info)
			}
		}
		sh.repStore = NewStore(opts.StoreBytesPerCycle, opts.Link)
		sh.repStore.name = "replay-store"
		sh.coord = NewCoordinator(len(eff.Channels()))
		sh.decoder = NewDecoder(opts.ReplayTrace, sh.repStore, sh.coord)
		for ci, bc := range eff.Channels() {
			r := NewReplayer(ci, bc, sh.coord, sh.decoder)
			sh.replayers = append(sh.replayers, r)
		}
		// Order matters: the decoder releases packets, then every replayer
		// broadcasts the cycle's completions, then the coordinator runs the
		// processing phase over all replayers. Both earlier steps wake the
		// tick-gated coordinator, so it runs in the same cycle.
		s.Register(sh.repStore, sh.decoder)
		for _, r := range sh.replayers {
			s.Register(r)
		}
		sh.coord.replayers = sh.replayers
		s.Register(sh.coord)
	}

	if recording {
		// Encoder ticks after the monitors (they push events during Tick),
		// the store after the encoder.
		s.Register(sh.encoder, sh.recStore)
		// The recording monitors consult the encoder's space accounting from
		// Eval (CanAccept), and the encoder drains into the store, which may
		// spend from the shared link bucket: all of that is Go state invisible
		// to the signal graph, so tie the recording stack into one partition.
		tied := []sim.Module{sh.encoder, sh.recStore}
		for _, m := range sh.monitors {
			if m.enc != nil {
				tied = append(tied, m)
			}
		}
		if opts.Link != nil {
			tied = append(tied, opts.Link)
		}
		s.Tie(tied...)
	}
	if opts.Mode == ModeReplay {
		// The replayers share the coordinator's vector clock and walk the
		// decoder's released-packet cursor; the decoder fetches through the
		// replay store, which may spend from the shared link.
		tied := []sim.Module{sh.repStore, sh.decoder, sh.coord}
		for _, r := range sh.replayers {
			tied = append(tied, r)
		}
		if opts.Link != nil {
			tied = append(tied, opts.Link)
		}
		s.Tie(tied...)
	}
	if opts.Telemetry != nil {
		sh.bindTelemetry(s, opts.Telemetry)
	}
	return sh, nil
}

// Trace returns the trace recorded by this shim (nil when not recording).
func (sh *Shim) Trace() *trace.Trace {
	if sh.encoder == nil {
		return nil
	}
	return sh.encoder.Trace()
}

// ReplayDone reports whether every replayer has recreated all its events.
func (sh *Shim) ReplayDone() bool {
	if sh.opts.Mode != ModeReplay {
		return false
	}
	for _, r := range sh.replayers {
		if !r.Done() {
			return false
		}
	}
	return true
}

// StoredBytes reports the trace bytes moved to external storage while
// recording.
func (sh *Shim) StoredBytes() uint64 {
	if sh.recStore == nil {
		return 0
	}
	return sh.recStore.StoredBytes
}

// PendingBytes reports trace bytes still staged on-FPGA.
func (sh *Shim) PendingBytes() int {
	if sh.encoder == nil {
		return 0
	}
	return sh.encoder.BufferedBytes()
}

// Encoder exposes the encoder for statistics (nil when not recording).
func (sh *Shim) Encoder() *Encoder { return sh.encoder }

// Store exposes the recording trace store for statistics and fault
// injection (nil when not recording).
func (sh *Shim) Store() *Store { return sh.recStore }

// Coordinator exposes the replay coordinator (nil when not replaying).
func (sh *Shim) Coordinator() *Coordinator { return sh.coord }
