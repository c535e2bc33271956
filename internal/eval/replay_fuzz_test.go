package eval

import (
	"errors"
	"sync"
	"testing"

	"vidi/internal/trace"
)

// fuzzReplayApps are the recordings FuzzReplayVerify mutates: a busy
// synthetic design, the interrupt-driven DMA app and the frame FIFO.
var fuzzReplayApps = []string{"stress", "dma-irq", "framefifo"}

// fuzzReplayBase is one seed recording and the cycle count of its
// unmutated replay.
type fuzzReplayBase struct {
	app          string
	tr           *trace.Trace
	replayCycles uint64
}

var (
	fuzzReplayOnce  sync.Once
	fuzzReplayBases []fuzzReplayBase
	fuzzReplayErr   error
)

// loadFuzzReplayBases records each app once (seed 7, R2) and replays it
// unmutated to learn the cycle bound a mutated replay runs under.
func loadFuzzReplayBases() ([]fuzzReplayBase, error) {
	fuzzReplayOnce.Do(func() {
		for _, app := range fuzzReplayApps {
			rec, err := Run(RunConfig{App: app, Scale: 1, Seed: 7, Cfg: R2})
			if err != nil {
				fuzzReplayErr = err
				return
			}
			_, rep, err := ReplayVerify(app, 1, 7, rec.Trace, 0)
			if err != nil {
				fuzzReplayErr = err
				return
			}
			fuzzReplayBases = append(fuzzReplayBases, fuzzReplayBase{app, rec.Trace, rep.Cycles})
		}
	})
	return fuzzReplayBases, fuzzReplayErr
}

// mutateTrace applies 1–3 mutations drawn from ops to a copy of tr: flip a
// Starts or Ends bit, drop or duplicate a packet, or drop a content entry.
// Missing op bytes read as zero.
func mutateTrace(tr *trace.Trace, ops []byte) *trace.Trace {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	out := trace.NewTrace(tr.Meta)
	out.Packets = append(out.Packets, tr.Packets...)
	for n := 1 + next()%3; n > 0 && len(out.Packets) > 0; n-- {
		kind := next() % 5
		pi := (next()<<8 | next()) % len(out.Packets)
		p := out.Packets[pi]
		switch kind {
		case 0, 1: // flip one Starts or Ends bit
			p.Starts, p.Ends = p.Starts.Copy(), p.Ends.Copy()
			bits := p.Starts
			if kind == 1 {
				bits = p.Ends
			}
			if ci := next() % bits.Len(); bits.Get(ci) {
				bits.Clear(ci)
			} else {
				bits.Set(ci)
			}
			out.Packets[pi] = p
		case 2: // drop the packet
			out.Packets = append(out.Packets[:pi], out.Packets[pi+1:]...)
		case 3: // duplicate the packet
			out.Packets = append(out.Packets[:pi+1], out.Packets[pi:]...)
		case 4: // drop one content entry
			if len(p.Contents) > 0 {
				ci := next() % len(p.Contents)
				p.Contents = append(append([][]byte(nil), p.Contents[:ci]...), p.Contents[ci+1:]...)
				out.Packets[pi] = p
			}
		}
	}
	return out
}

// FuzzReplayVerify replays mutated recordings. The oracle: replay never
// panics; a trace that fails Validate is refused with a typed
// *InvalidTraceError; any other trace returns a report or an error within
// four times the unmutated replay's cycles.
func FuzzReplayVerify(f *testing.F) {
	for i := range fuzzReplayApps {
		app := uint8(i)
		f.Add(app, []byte{0, 0, 0, 5, 0})    // flip a Starts bit
		f.Add(app, []byte{0, 1, 0, 9, 1})    // flip an Ends bit
		f.Add(app, []byte{1, 2, 0, 3, 3, 1}) // drop one packet, duplicate another
		f.Add(app, []byte{2, 4, 0, 7, 0, 1, 0, 2, 0, 4, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, app uint8, ops []byte) {
		bases, err := loadFuzzReplayBases()
		if err != nil {
			t.Fatal(err)
		}
		base := bases[int(app)%len(bases)]
		tr := mutateTrace(base.tr, ops)
		verr := tr.Validate()
		_, _, err = ReplayVerify(base.app, 1, 7, tr, 4*base.replayCycles)
		var inv *InvalidTraceError
		if verr != nil && !errors.As(err, &inv) {
			t.Fatalf("%s: Validate rejects the trace (%v) but ReplayVerify returned %v", base.app, verr, err)
		}
	})
}
