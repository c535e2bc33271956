package trace

import "fmt"

// EventKind distinguishes transaction start and end events.
type EventKind int

const (
	// StartEvent marks the first cycle of a handshake.
	StartEvent EventKind = iota
	// EndEvent marks the cycle in which VALID and READY are both high.
	EndEvent
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == StartEvent {
		return "start"
	}
	return "end"
}

// Event is one transaction event reconstructed from a trace.
type Event struct {
	// Packet is the index of the cycle packet carrying the event.
	Packet int
	// Channel is the monitored channel index.
	Channel int
	// Kind is start or end.
	Kind EventKind
	// Content is the transaction content when the trace carries it: input
	// starts always, output ends when ValidateOutputs is set.
	Content []byte
	// Ordinal is the per-channel, per-kind ordinal of this event (the n-th
	// start or n-th end on Channel), counted from 0.
	Ordinal uint64
}

// Events flattens the trace into its transaction events in trace order.
// Events within one cycle packet are simultaneous in wall-clock terms; they
// are listed starts-first then ends, each in channel index order, which is
// the canonical intra-cycle order used throughout the tooling.
func (t *Trace) Events() []Event {
	m := t.Meta
	var out []Event
	startOrd := make([]uint64, m.NumChannels())
	endOrd := make([]uint64, m.NumChannels())
	for pi, p := range t.Packets {
		k := 0
		for ii, ci := range m.InputChannels() {
			if p.Starts.Get(ii) {
				out = append(out, Event{Packet: pi, Channel: ci, Kind: StartEvent, Content: p.Contents[k], Ordinal: startOrd[ci]})
				startOrd[ci]++
				k++
			}
		}
		for ci := 0; ci < m.NumChannels(); ci++ {
			if p.Ends.Get(ci) {
				content := p.endContent(m, ci, &k)
				out = append(out, Event{Packet: pi, Channel: ci, Kind: EndEvent, Content: content, Ordinal: endOrd[ci]})
				endOrd[ci]++
			}
		}
	}
	return out
}

// endContent returns the content of channel ci's end event in packet p and
// advances the content cursor k past it. Output contents, when present,
// follow the input-start contents in channel order; input ends carry none,
// and lossy (gap-region) packets carry no output contents, so those end
// events have nil Content.
func (p *CyclePacket) endContent(m *Meta, ci int, k *int) []byte {
	if !m.ValidateOutputs || p.Lossy || m.Channels[ci].Dir != Output {
		return nil
	}
	c := p.Contents[*k]
	*k++
	return c
}

// Txn is one reconstructed transaction.
type Txn struct {
	Channel     int
	Ordinal     uint64 // per-channel transaction number, from 0
	StartPacket int    // -1 when the trace does not record starts (outputs)
	EndPacket   int    // -1 when the transaction never completed
	Content     []byte // nil when the trace does not carry content
}

// Index reconstructs every channel's transactions in one pass over the
// packets: Index()[ch] lists channel ch's transactions in order. A start
// opens a transaction and the channel's next end completes it; an end with
// no open transaction (output channels record ends only) is a transaction
// of its own. Contents alias the trace's packets.
func (t *Trace) Index() [][]Txn {
	m := t.Meta
	out := make([][]Txn, m.NumChannels())
	// open[ci] is the index in out[ci] of the transaction awaiting its end,
	// or -1.
	open := make([]int, m.NumChannels())
	for ci := range open {
		open[ci] = -1
	}
	for pi, p := range t.Packets {
		k := 0
		for ii, ci := range m.InputChannels() {
			if p.Starts.Get(ii) {
				open[ci] = len(out[ci])
				out[ci] = append(out[ci], Txn{Channel: ci, Ordinal: uint64(len(out[ci])), StartPacket: pi, EndPacket: -1, Content: p.Contents[k]})
				k++
			}
		}
		for ci := range out {
			if !p.Ends.Get(ci) {
				continue
			}
			content := p.endContent(m, ci, &k)
			if o := open[ci]; o >= 0 {
				out[ci][o].EndPacket = pi
				open[ci] = -1
				continue
			}
			out[ci] = append(out[ci], Txn{Channel: ci, Ordinal: uint64(len(out[ci])), StartPacket: -1, EndPacket: pi, Content: content})
		}
	}
	return out
}

// EndEvents returns the trace's end events in order, across all channels.
// This sequence defines the happens-before order that transaction
// determinism preserves.
func (t *Trace) EndEvents() []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Kind == EndEvent {
			out = append(out, ev)
		}
	}
	return out
}

// FindEnd locates the packet index of the n-th end event (0-based) on
// channel ch, or -1 if the trace has fewer.
func (t *Trace) FindEnd(ch int, n uint64) int {
	if ch < 0 || ch >= t.Meta.NumChannels() {
		return -1
	}
	for pi, p := range t.Packets {
		if p.Ends.Get(ch) {
			if n == 0 {
				return pi
			}
			n--
		}
	}
	return -1
}

// Summary returns a human-readable per-channel transaction count summary.
func (t *Trace) Summary() string {
	counts := t.EndCounts()
	s := fmt.Sprintf("%d cycle packets, %d bytes, %d transactions\n", len(t.Packets), t.SizeBytes(), t.TotalTransactions())
	for i, c := range t.Meta.Channels {
		s += fmt.Sprintf("  [%2d] %-16s %-6s width=%-3d ends=%d\n", i, c.Name, c.Dir, c.Width, counts[i])
	}
	return s
}
