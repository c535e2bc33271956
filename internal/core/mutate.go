package core

import (
	"fmt"

	"vidi/internal/trace"
)

// Trace mutation (§4.2, §5.3): Vidi's testing workflow captures a production
// trace and reorders its transaction events to synthesize executions that
// the protocol permits but that rarely occur naturally — e.g. completing a
// write-data transaction before its write-address transaction, the legal AXI
// interleaving that deadlocks the buggy axi_atop_filter in the paper's
// testing case study.

// MoveEndBefore mutates t so that the n-th end event (0-based) of channel ch
// occurs strictly before the m-th end event of channel before. The moved
// event (with its content, when the trace carries it) is placed in a fresh
// cycle packet immediately preceding the packet holding the target event.
// For input channels, the transaction's start event — which must not follow
// its own end — is moved along when necessary, yielding a single-cycle
// transaction at the new position. All other events keep their relative
// order.
func MoveEndBefore(t *trace.Trace, ch string, n uint64, before string, m uint64) error {
	ci := t.Meta.ChannelByName(ch)
	if ci < 0 {
		return fmt.Errorf("core: unknown channel %q", ch)
	}
	bi := t.Meta.ChannelByName(before)
	if bi < 0 {
		return fmt.Errorf("core: unknown channel %q", before)
	}
	src := t.FindEnd(ci, n)
	if src < 0 {
		return fmt.Errorf("core: channel %s has no end event #%d", ch, n)
	}
	dst := t.FindEnd(bi, m)
	if dst < 0 {
		return fmt.Errorf("core: channel %s has no end event #%d", before, m)
	}
	if src < dst {
		return nil // already strictly before
	}

	// For an input channel, find the matching start; it must stay strictly
	// before (or move together with) its end.
	moveStart := false
	var startContent []byte
	startPkt := -1
	if t.Meta.Channels[ci].Dir == trace.Input {
		txns := t.Index()[ci]
		if n >= uint64(len(txns)) {
			return fmt.Errorf("core: channel %s has %d transactions, wanted #%d", ch, len(txns), n)
		}
		startPkt = txns[n].StartPacket
		if startPkt >= dst {
			moveStart = true
			startContent = txns[n].Content
		}
	}

	// Detach the events from their packets (content extraction included).
	endContent := removeEnd(t, src, ci)
	if moveStart {
		removeStart(t, startPkt, ci)
	}

	// Build the single-transaction packet.
	np := trace.NewCyclePacket(t.Meta)
	np.Ends.Set(ci)
	if moveStart {
		np.Starts.Set(t.Meta.InputIndex(ci))
		np.Contents = append(np.Contents, startContent)
	}
	if endContent != nil {
		np.Contents = append(np.Contents, endContent)
	}

	// Drop any packets the removals emptied, in descending order, keeping
	// the insertion index in step.
	drop := []int{}
	if t.Packets[src].Empty() {
		drop = append(drop, src)
	}
	if moveStart && startPkt != src && t.Packets[startPkt].Empty() {
		drop = append(drop, startPkt)
	}
	for i := 0; i < len(drop); i++ {
		for j := i + 1; j < len(drop); j++ {
			if drop[j] > drop[i] {
				drop[i], drop[j] = drop[j], drop[i]
			}
		}
	}
	for _, pi := range drop {
		t.Packets = append(t.Packets[:pi], t.Packets[pi+1:]...)
		if pi < dst {
			dst--
		}
	}

	// Insert the new packet strictly before the target event.
	t.Packets = append(t.Packets, trace.CyclePacket{})
	copy(t.Packets[dst+1:], t.Packets[dst:])
	t.Packets[dst] = np
	return t.Validate()
}

// removeEnd clears channel ci's end bit in packet pi and extracts its output
// content if the trace carries one. It returns the extracted content (nil if
// none).
func removeEnd(t *trace.Trace, pi, ci int) []byte {
	m := t.Meta
	p := &t.Packets[pi]
	var content []byte
	if m.ValidateOutputs && m.Channels[ci].Dir == trace.Output {
		// Locate the content position: input start contents first, then
		// output end contents in output channel order.
		k := 0
		for ii := range m.InputChannels() {
			if p.Starts.Get(ii) {
				k++
			}
		}
		for _, oc := range m.OutputChannels() {
			if oc == ci {
				break
			}
			if p.Ends.Get(oc) {
				k++
			}
		}
		content = p.Contents[k]
		p.Contents = append(p.Contents[:k], p.Contents[k+1:]...)
	}
	p.Ends.Clear(ci)
	return content
}

// removeStart clears input channel ci's start bit in packet pi and removes
// its content.
func removeStart(t *trace.Trace, pi, ci int) []byte {
	m := t.Meta
	p := &t.Packets[pi]
	ii := m.InputIndex(ci)
	k := 0
	for j := 0; j < ii; j++ {
		if p.Starts.Get(j) {
			k++
		}
	}
	content := p.Contents[k]
	p.Contents = append(p.Contents[:k], p.Contents[k+1:]...)
	p.Starts.Clear(ii)
	return content
}

// SwapEnds exchanges the order of two end events by moving the later one
// before the earlier one.
func SwapEnds(t *trace.Trace, chA string, nA uint64, chB string, nB uint64) error {
	ai := t.Meta.ChannelByName(chA)
	bi := t.Meta.ChannelByName(chB)
	if ai < 0 || bi < 0 {
		return fmt.Errorf("core: unknown channel %q or %q", chA, chB)
	}
	pa, pb := t.FindEnd(ai, nA), t.FindEnd(bi, nB)
	if pa < 0 || pb < 0 {
		return fmt.Errorf("core: end event not found")
	}
	if pa <= pb {
		return MoveEndBefore(t, chB, nB, chA, nA)
	}
	return MoveEndBefore(t, chA, nA, chB, nB)
}

// DropTail truncates the trace after the first n cycle packets; useful for
// replaying a prefix of an execution.
func DropTail(t *trace.Trace, n int) {
	if n < len(t.Packets) {
		t.Packets = t.Packets[:n]
	}
}
