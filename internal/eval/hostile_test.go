package eval

import (
	"encoding/binary"
	"testing"

	"vidi/internal/apps"
	"vidi/internal/axi"
	"vidi/internal/trace"
)

// Replay drives the FPGA side with addresses, lengths and data taken from
// the trace. These tests hand the replayer traces that pass Validate but
// carry hostile values in one content entry; replay must return, never
// panic or allocate without bound.

// recordSeed7 records app at scale 1 with environment seed 7.
func recordSeed7(t *testing.T, app string) *trace.Trace {
	t.Helper()
	rec, err := Run(RunConfig{App: app, Scale: 1, Seed: 7, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace
}

// editContent returns a valid copy of tr in which edit has rewritten, in
// place, the content of the n-th transaction on channel ch.
func editContent(t *testing.T, tr *trace.Trace, ch string, n int, edit func(c []byte)) *trace.Trace {
	t.Helper()
	c, err := trace.FromBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ci := c.Meta.ChannelByName(ch)
	if ci < 0 {
		t.Fatalf("no channel %s", ch)
	}
	txns := c.Index()[ci]
	if n >= len(txns) {
		t.Fatalf("%s has %d transactions, want #%d", ch, len(txns), n)
	}
	edit(txns[n].Content) // contents alias the packets
	if err := c.Validate(); err != nil {
		t.Fatalf("edited trace no longer validates: %v", err)
	}
	return c
}

// TestReplayFrameFIFOReadPastCardDRAM replays a framefifo recording whose
// first pcis read address runs past the end of card DRAM. The read-back
// moves zeros and the replay diverges on pcis.R instead of panicking.
func TestReplayFrameFIFOReadPastCardDRAM(t *testing.T) {
	tr := editContent(t, recordSeed7(t, "framefifo"), "pcis.AR", 0, func(c []byte) {
		binary.LittleEndian.PutUint64(c, 0x3FFFF0)
	})
	report, rep, err := ReplayVerify("framefifo", 1, 7, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatalf("a read-back of zeros replayed clean: %s", report)
	}
	if rep.Sys.CardDRAM.Size() != 4<<20 {
		t.Fatalf("card DRAM is %d bytes, the test assumes 4 MiB", rep.Sys.CardDRAM.Size())
	}
}

// TestReplaySSSPHostileGraph replays an sssp recording whose edge-list
// header, written over pcis, names a source node outside the graph. The
// kernel refuses the list and reports every node unreachable.
func TestReplaySSSPHostileGraph(t *testing.T) {
	tr := recordSeed7(t, "sssp")
	// The W beat that carries the header is the first beat of the burst
	// addressed to InBase.
	ci := tr.Meta.ChannelByName("pcis.AW")
	beat := 0
	for _, aw := range tr.Index()[ci] {
		p := axi.DecodeAW(aw.Content, false)
		if p.Addr == apps.InBase {
			break
		}
		beat += int(p.Len) + 1
	}
	tr = editContent(t, tr, "pcis.W", beat, func(c []byte) {
		binary.LittleEndian.PutUint32(c[4:], 1000) // src; the graph has 128 nodes
	})
	report, _, err := ReplayVerify("sssp", 1, 7, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatalf("a refused edge list replayed clean: %s", report)
	}
}
