package trace

import (
	"reflect"
	"testing"
)

// refEvents is the reference event reconstruction the one-pass readers are
// checked against: it looks up each packet's output contents through a
// per-packet map, exactly as the event list was first built.
func refEvents(t *Trace) []Event {
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
		outContent := map[int][]byte{}
		if m.ValidateOutputs && !p.Lossy {
			for _, ci := range m.OutputChannels() {
				if p.Ends.Get(ci) {
					outContent[ci] = p.Contents[k]
					k++
				}
			}
		}
		for ci := 0; ci < m.NumChannels(); ci++ {
			if p.Ends.Get(ci) {
				out = append(out, Event{Packet: pi, Channel: ci, Kind: EndEvent, Content: outContent[ci], Ordinal: endOrd[ci]})
				endOrd[ci]++
			}
		}
	}
	return out
}

// refTransactions is the reference per-channel reconstruction: one walk of
// the whole event list for channel ch.
func refTransactions(t *Trace, ch int) []Txn {
	var out []Txn
	openIdx := -1
	for _, ev := range refEvents(t) {
		if ev.Channel != ch {
			continue
		}
		switch ev.Kind {
		case StartEvent:
			out = append(out, Txn{Channel: ch, Ordinal: uint64(len(out)), StartPacket: ev.Packet, EndPacket: -1, Content: ev.Content})
			openIdx = len(out) - 1
		case EndEvent:
			if openIdx >= 0 && out[openIdx].EndPacket == -1 {
				out[openIdx].EndPacket = ev.Packet
				openIdx = -1
			} else {
				out = append(out, Txn{Channel: ch, Ordinal: uint64(len(out)), StartPacket: -1, EndPacket: ev.Packet, Content: ev.Content})
			}
		}
	}
	return out
}

// CheckIndex fails t unless Index, Events, EndEvents and FindEnd on tr agree
// with the reference reconstructions above. Exported so that the external
// test package can run it over recorded application traces.
func CheckIndex(t testing.TB, tr *Trace) {
	t.Helper()
	evs := refEvents(tr)
	if got := tr.Events(); !reflect.DeepEqual(got, evs) {
		t.Fatalf("Events differs from the reference (%d vs %d events)", len(got), len(evs))
	}
	var ends []Event
	endPkt := map[[2]uint64]int{}
	for _, ev := range evs {
		if ev.Kind == EndEvent {
			ends = append(ends, ev)
			endPkt[[2]uint64{uint64(ev.Channel), ev.Ordinal}] = ev.Packet
		}
	}
	if got := tr.EndEvents(); !reflect.DeepEqual(got, ends) {
		t.Fatalf("EndEvents differs from the reference (%d vs %d events)", len(got), len(ends))
	}
	idx := tr.Index()
	if len(idx) != tr.Meta.NumChannels() {
		t.Fatalf("Index has %d channels, trace has %d", len(idx), tr.Meta.NumChannels())
	}
	endCount := make([]uint64, tr.Meta.NumChannels())
	for _, ev := range ends {
		endCount[ev.Channel]++
	}
	for ci := range idx {
		if want := refTransactions(tr, ci); !reflect.DeepEqual(idx[ci], want) {
			t.Fatalf("channel %d: Index gives %d transactions, reference %d, or their fields differ", ci, len(idx[ci]), len(want))
		}
		// FindEnd on every ordinal of short channels, and on a spread of
		// ordinals plus the first missing one on long channels.
		step := max(endCount[ci]/64, 1)
		for n := uint64(0); n <= endCount[ci]; n += step {
			want, ok := endPkt[[2]uint64{uint64(ci), n}]
			if !ok {
				want = -1
			}
			if got := tr.FindEnd(ci, n); got != want {
				t.Fatalf("FindEnd(%d, %d) = %d, want %d", ci, n, got, want)
			}
		}
		if got := tr.FindEnd(ci, endCount[ci]); got != -1 {
			t.Fatalf("FindEnd(%d, %d) past the last end = %d, want -1", ci, endCount[ci], got)
		}
	}
	for _, ci := range []int{-1, tr.Meta.NumChannels()} {
		if got := tr.FindEnd(ci, 0); got != -1 {
			t.Fatalf("FindEnd on missing channel %d = %d, want -1", ci, got)
		}
	}
}

func TestIndexMatchesReference(t *testing.T) {
	CheckIndex(t, lossyTrace(t))

	// Streams a valid recording never holds: input ends with no start
	// (first and after a completed transaction), a start while the
	// previous transaction is in flight, and a start that never ends.
	m := testMeta(true)
	tr := NewTrace(m)
	p0 := NewCyclePacket(m)
	p0.Ends.Set(0)
	p0.Starts.Set(1)
	p0.Contents = [][]byte{{1, 1, 1, 1}}
	tr.Append(p0)
	p1 := NewCyclePacket(m)
	p1.Starts.Set(1)
	p1.Starts.Set(0)
	p1.Ends.Set(4)
	p1.Contents = [][]byte{{2, 2, 2, 2}, {3, 3, 3, 3}, make([]byte, 64)}
	tr.Append(p1)
	p2 := NewCyclePacket(m)
	p2.Ends.Set(1)
	tr.Append(p2)
	p3 := NewCyclePacket(m)
	p3.Ends.Set(1)
	tr.Append(p3)
	CheckIndex(t, tr)
}
