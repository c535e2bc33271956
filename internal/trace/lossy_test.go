package trace

import (
	"bytes"
	"testing"
)

// lossyTrace builds a trace whose middle packet is a degraded-mode gap: the
// output end keeps its event bit but sheds its content.
func lossyTrace(t *testing.T) *Trace {
	t.Helper()
	m := testMeta(true)
	tr := NewTrace(m)

	p0 := NewCyclePacket(m)
	p0.Starts.Set(0) // ocl.AW start
	p0.Ends.Set(3)   // pcim.AW end (output, recorded)
	p0.Contents = [][]byte{{1, 2, 3, 4}, {9, 9, 9, 9, 9, 9, 9, 9}}
	tr.Append(p0)

	p1 := NewCyclePacket(m)
	p1.Lossy = true
	p1.Starts.Set(1) // ocl.W start: input content kept even in a gap
	p1.Ends.Set(0)   // ocl.AW end
	p1.Ends.Set(3)   // pcim.AW end (output, content shed)
	p1.Contents = [][]byte{{5, 6, 7, 8}}
	tr.Append(p1)

	p2 := NewCyclePacket(m)
	p2.Ends.Set(1) // ocl.W end
	p2.Ends.Set(2) // ocl.B end (output, recorded again)
	p2.Contents = [][]byte{{7}}
	tr.Append(p2)

	if err := tr.Validate(); err != nil {
		t.Fatalf("lossy trace invalid: %v", err)
	}
	return tr
}

// TestLossyRoundTrip checks that gap markers and the shed contents survive
// serialization exactly.
func TestLossyRoundTrip(t *testing.T) {
	tr := lossyTrace(t)
	rt, err := FromBytes(tr.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := rt.LossyPackets(); got != 1 {
		t.Fatalf("LossyPackets = %d, want 1", got)
	}
	if !rt.Packets[1].Lossy || rt.Packets[0].Lossy || rt.Packets[2].Lossy {
		t.Fatalf("lossy flags misplaced after round trip: %v %v %v",
			rt.Packets[0].Lossy, rt.Packets[1].Lossy, rt.Packets[2].Lossy)
	}
	if !bytes.Equal(rt.Bytes(), tr.Bytes()) {
		t.Fatalf("round trip not byte-identical")
	}
}

// TestLossyAccounting checks the gap statistics and the event view: lossy
// output ends surface with nil content, everything else keeps its data.
func TestLossyAccounting(t *testing.T) {
	tr := lossyTrace(t)
	// Two output ends inside the gap? p1 has one output end (pcim.AW);
	// ocl.AW is an input end, which never carries content.
	if got := tr.UnrecordedTransactions(); got != 1 {
		t.Fatalf("UnrecordedTransactions = %d, want 1", got)
	}
	idx := tr.Index()
	txns := idx[3] // pcim.AW
	if len(txns) != 2 {
		t.Fatalf("pcim.AW transactions = %d, want 2", len(txns))
	}
	if txns[0].Content == nil {
		t.Fatalf("recorded output end lost its content")
	}
	if txns[1].Content != nil {
		t.Fatalf("gap output end should have nil content, got %x", txns[1].Content)
	}
	// Input content inside the gap is preserved: replay needs it.
	w := idx[1] // ocl.W
	if len(w) != 1 || !bytes.Equal(w[0].Content, []byte{5, 6, 7, 8}) {
		t.Fatalf("gap input content not preserved: %+v", w)
	}
}

// TestLossyCopy checks the gap marker survives packet deep-copies.
func TestLossyCopy(t *testing.T) {
	tr := lossyTrace(t)
	c := tr.Packets[1].Copy()
	if !c.Lossy {
		t.Fatalf("Copy dropped the Lossy flag")
	}
}
