package core

import (
	"vidi/internal/sim"
	"vidi/internal/trace"
	"vidi/internal/vclock"
)

// Coordinator carries the shared T_current vector clock: entry i counts the
// transactions that have completed on channel i during the replay. In
// hardware each replayer keeps its own copy updated by broadcast messages;
// sharing the clock is behaviourally identical and deterministic.
//
// The coordinator is itself a module, registered after every replayer: its
// Tick runs the replayers' item-processing phase once all of the cycle's
// completions have been broadcast, so that transactions recorded as
// concurrent (same cycle packet) are re-offered in the same cycle rather
// than skewed by module iteration order.
//
// The coordinator is tick-gated: it sleeps until a completion is broadcast
// or the decoder releases a packet, the only two events that can unpark a
// replayer (see TickStable).
type Coordinator struct {
	sim.NullEval
	tcur      vclock.Clock
	replayers []*Replayer
	tickWake  func()
}

// NewCoordinator creates a coordinator over n channels.
func NewCoordinator(n int) *Coordinator { return &Coordinator{tcur: vclock.New(n)} }

// Name implements sim.Module.
func (c *Coordinator) Name() string { return "replay-coordinator" }

// Tick implements sim.Module: it runs every replayer's processing phase
// after all fire broadcasts of the cycle.
func (c *Coordinator) Tick() {
	for _, r := range c.replayers {
		r.process()
	}
}

// Completed broadcasts that a transaction completed on channel ci.
func (c *Coordinator) Completed(ci int) {
	c.tcur.Inc(ci)
	c.wake()
}

func (c *Coordinator) wake() {
	if c.tickWake != nil {
		c.tickWake()
	}
}

// BindTickWake implements sim.TickWakeable; completions and packet releases
// wake the coordinator.
func (c *Coordinator) BindTickWake(wake func()) { c.tickWake = wake }

// TickWatch implements sim.TickSensitive: the coordinator has no channels of
// its own; replayers and the decoder wake it.
func (c *Coordinator) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive. One Tick runs every replayer's
// processing phase to a fixpoint: processing changes only the replayer's
// own state, never T_current or the released count, so no replayer can
// unpark another within the pass. Each replayer then waits on a completion
// (the T_current gate, an active offer, an unmatched End, an asserted
// READY) or on a packet release (idx == released), and both wake the
// coordinator. Registered after the decoder and the replayers in the same
// partition, it runs in the very cycle of the wake.
func (c *Coordinator) TickStable() bool { return true }

// Current returns the shared T_current clock.
func (c *Coordinator) Current() vclock.Clock { return c.tcur }

// Decoder is the trace decoder (§3.4): it decomposes cycle packets into
// per-channel packets plus the Ends vector and makes them available to the
// channel replayers, at a bounded fetch bandwidth that models reading the
// trace back from external storage. Replayers walk the shared packet
// sequence with private cursors, which is behaviourally the per-replayer
// ⟨channel packet, Ends⟩ streams of the paper without duplicating the trace.
type Decoder struct {
	sim.NullEval
	meta  *trace.Meta
	tr    *trace.Trace
	store *Store
	coord *Coordinator // woken on every packet release

	released int // packets whose bytes have been fetched
	fetched  int // bytes fetched so far
	offset   int // serialized offset of the next packet

	// fetchStalls counts Ticks that exhausted the fetch bandwidth with
	// packets still pending. Folded into the telemetry sink on scrape.
	fetchStalls uint64
}

// NewDecoder creates a decoder over tr fetching through store and waking
// coord as packets are released.
func NewDecoder(tr *trace.Trace, store *Store, coord *Coordinator) *Decoder {
	return &Decoder{meta: tr.Meta, tr: tr, store: store, coord: coord}
}

// Name implements sim.Module.
func (d *Decoder) Name() string { return "trace-decoder" }

// Tick implements sim.Module: it releases every packet whose bytes have been
// fetched from storage this cycle.
func (d *Decoder) Tick() {
	for d.released < len(d.tr.Packets) {
		pkt := d.tr.Packets[d.released]
		need := d.offset + pkt.Size(d.meta) - d.fetched
		if need > 0 {
			got := d.store.Accept(need)
			d.fetched += got
			if got < need {
				d.fetchStalls++
				return // fetch bandwidth exhausted this cycle
			}
		}
		d.offset += pkt.Size(d.meta)
		d.released++
		d.coord.wake()
	}
}

// TickWatch implements sim.TickSensitive: the decoder has no channels.
func (d *Decoder) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive: the decoder fetches every cycle
// until the whole trace is released, then never acts again.
func (d *Decoder) TickStable() bool { return d.Done() }

// Done reports whether the whole trace has been released to the replayers.
func (d *Decoder) Done() bool { return d.released >= len(d.tr.Packets) }

// ownPacket extracts channel ci's channel packet from a cycle packet:
// whether it starts, its content (input channels only), and whether it ends.
func (d *Decoder) ownPacket(pkt trace.CyclePacket, ci int) trace.ChannelPacket {
	m := d.meta
	cp := trace.ChannelPacket{End: pkt.Ends.Get(ci)}
	ii := m.InputIndex(ci)
	if ii >= 0 && pkt.Starts.Get(ii) {
		cp.Start = true
		// The content's position among the start contents is the number of
		// started input channels with a smaller input index.
		k := 0
		for j := 0; j < ii; j++ {
			if pkt.Starts.Get(j) {
				k++
			}
		}
		cp.Content = pkt.Contents[k]
	}
	return cp
}

// Replayer recreates the environment side of one boundary channel during
// replay (§3.5). An input channel replayer acts as the sender: it starts
// each recorded transaction with its recorded content once the happens-
// before precondition T_current ≥ T_expected holds. An output channel
// replayer acts as the receiver: it completes each recorded transaction by
// asserting READY once the precondition holds.
//
// T_expected advances past each processed cycle packet's Ends vector, so an
// event is only recreated after every transaction end that preceded it in
// the recorded execution has completed in the replay — transaction
// determinism.
type Replayer struct {
	sim.EvalTracker
	ci    int
	bc    BoundaryChannel
	coord *Coordinator
	dec   *Decoder

	idx  int // cursor into the decoder's packet sequence
	texp vclock.Clock

	// Sender state (input channels).
	active bool
	cur    []byte
	// Receiver state (output channels).
	ready bool

	// startIssued marks that the head item's start has been driven.
	startIssued bool
	// firedPending counts handshakes observed on the channel that have not
	// yet been matched to an End item. The application side may complete an
	// input transaction before the replayer processes the corresponding End
	// item; the counter absorbs that skew.
	firedPending int

	// gateStalls counts trace items that parked on the happens-before
	// precondition (T_current < T_expected) — the replay-side analogue of
	// recording back-pressure. Each item counts once however many passes it
	// waits, so the total does not depend on how often the kernel ticks the
	// coordinator. Folded into the telemetry sink on scrape.
	gateStalls uint64
	// gateParked marks that the head item is already counted in gateStalls.
	gateParked bool
}

// NewReplayer creates the replayer for boundary channel index ci.
func NewReplayer(ci int, bc BoundaryChannel, coord *Coordinator, dec *Decoder) *Replayer {
	return &Replayer{ci: ci, bc: bc, coord: coord, dec: dec, texp: vclock.New(coord.tcur.Len())}
}

// Name implements sim.Module.
func (r *Replayer) Name() string { return "replayer." + r.bc.Info.Name }

// Done reports whether the replayer has recreated all of its events.
func (r *Replayer) Done() bool {
	return r.dec.Done() && r.idx >= len(r.dec.tr.Packets) && !r.active && r.firedPending == 0
}

// Eval implements sim.Module: drive the environment-side channel from
// registered state.
func (r *Replayer) Eval() {
	if r.bc.Info.Dir == trace.Input {
		r.bc.Env.Valid.Set(r.active)
		if r.active {
			r.bc.Env.Data.Set(r.cur)
		}
	} else {
		r.bc.Env.Ready.Set(r.ready)
	}
}

// Sensitivity implements sim.Sensitive: the replayer recreates the
// environment side of its channel from registered state. Replayers also
// share the coordinator's vector clock and the decoder's cursor state at
// Tick time, so the shim ties the whole replay stack together.
func (r *Replayer) Sensitivity() sim.Sensitivity {
	if r.bc.Info.Dir == trace.Input {
		return sim.Sensitivity{Drives: r.bc.Env.SenderSignals()}
	}
	return sim.Sensitivity{Drives: r.bc.Env.ReceiverSignals()}
}

// TickWatch implements sim.TickSensitive: the replayer's Tick acts only on
// its environment-side channel's handshakes.
func (r *Replayer) TickWatch() []*sim.Channel { return []*sim.Channel{r.bc.Env} }

// TickStable implements sim.TickSensitive: Tick is a pure reaction to a
// completion on the watched channel.
func (r *Replayer) TickStable() bool { return true }

// Tick implements sim.Module: phase A, observe completions on the
// environment side and broadcast them. Item processing (phase B) runs from
// the coordinator's Tick once every replayer has broadcast.
func (r *Replayer) Tick() {
	if r.bc.Env.Fired() {
		r.coord.Completed(r.ci)
		r.firedPending++
		if r.bc.Info.Dir == trace.Input {
			r.active = false
		} else {
			r.ready = false
		}
		r.Touch()
	}
}

// process is phase B: recreate as many trace events as preconditions allow.
func (r *Replayer) process() {
	input := r.bc.Info.Dir == trace.Input
	for r.idx < r.dec.released {
		item := r.dec.ownPacket(r.dec.tr.Packets[r.idx], r.ci)
		if (item.Start || item.End) && !r.coord.Current().Geq(r.texp) {
			if !r.gateParked {
				r.gateParked = true
				r.gateStalls++
			}
			return // happens-before precondition not yet satisfied
		}
		if item.Start && !r.startIssued {
			if r.active {
				return // previous transaction still being offered
			}
			r.cur = item.Content
			r.active = true
			r.startIssued = true
			r.Touch()
		}
		if item.End {
			if input {
				// The application's READY decides when an input
				// transaction ends; wait for the observed handshake.
				if r.firedPending == 0 {
					return
				}
				r.firedPending--
			} else {
				// Output channel: attempt to end the transaction by
				// asserting READY, then wait for the handshake.
				if r.firedPending == 0 {
					r.ready = true
					r.Touch()
					return
				}
				r.firedPending--
			}
		}
		// Item fully processed: advance T_expected past its Ends.
		ends := r.dec.tr.Packets[r.idx].Ends
		for i := 0; i < ends.Len(); i++ {
			if ends.Get(i) {
				r.texp.Inc(i)
			}
		}
		r.idx++
		r.startIssued = false
		r.gateParked = false
	}
}
