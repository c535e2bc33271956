package core

// Microtests of the replayer's happens-before gating with handcrafted
// traces, pinning down §3.5's semantics at the single-event level. Every
// scenario replays on both kernels: the legacy kernel ticks the replay
// stack every cycle, the scheduler only when a completion or a packet
// release wakes it, and the fire logs must agree cycle for cycle.

import (
	"reflect"
	"testing"

	"vidi/internal/sim"
	"vidi/internal/trace"
)

// gateWorld is a two-input, one-output boundary with a scriptable app:
// input receivers are always ready, and the output asserts valid when told.
type gateWorld struct {
	sim      *sim.Simulator
	boundary *Boundary
	envA     *sim.Channel
	envB     *sim.Channel
	envOut   *sim.Channel
	app      *gateApp
}

type gateApp struct {
	a, b, out *sim.Channel
	// outQueue holds payloads the app offers on the output.
	outQueue [][]byte
	active   bool
	cur      []byte
	// holdB keeps B's READY low for the first holdB cycles.
	holdB uint64
	cycle uint64
	// Fired log, in cycle order, and the cycle of each fire.
	Log []string
	At  []uint64
}

func (g *gateApp) Name() string { return "gateapp" }
func (g *gateApp) Eval() {
	g.a.Ready.Set(true)
	g.b.Ready.Set(g.cycle >= g.holdB)
	g.out.Valid.Set(g.active)
	if g.active {
		g.out.Data.Set(g.cur)
	}
}
func (g *gateApp) Tick() {
	if g.a.Fired() {
		g.fire("A")
	}
	if g.b.Fired() {
		g.fire("B")
	}
	if g.active && g.out.Fired() {
		g.fire("O")
		g.active = false
	}
	if !g.active && len(g.outQueue) > 0 {
		g.cur = g.outQueue[0]
		g.outQueue = g.outQueue[1:]
		g.active = true
	}
	g.cycle++
}

func (g *gateApp) fire(ch string) {
	g.Log = append(g.Log, ch)
	g.At = append(g.At, g.cycle)
}

func newGateWorld() *gateWorld {
	s := sim.New()
	w := &gateWorld{sim: s, boundary: NewBoundary()}
	w.envA = s.NewChannel("env.A", 1)
	w.envB = s.NewChannel("env.B", 1)
	w.envOut = s.NewChannel("env.O", 1)
	appA := s.NewChannel("app.A", 1)
	appB := s.NewChannel("app.B", 1)
	appOut := s.NewChannel("app.O", 1)
	w.boundary.MustAdd(trace.ChannelInfo{Name: "A", Width: 1, Dir: trace.Input}, w.envA, appA)
	w.boundary.MustAdd(trace.ChannelInfo{Name: "B", Width: 1, Dir: trace.Input}, w.envB, appB)
	w.boundary.MustAdd(trace.ChannelInfo{Name: "O", Width: 1, Dir: trace.Output}, w.envOut, appOut)
	w.app = &gateApp{a: appA, b: appB, out: appOut}
	s.Register(w.app)
	return w
}

// handTrace builds a trace from a compact event script: each element is one
// cycle packet listing events like "A+", "A-", "B-", "O-" (start/end).
func handTrace(t *testing.T, m *trace.Meta, script [][]string) *trace.Trace {
	t.Helper()
	tr := trace.NewTrace(m)
	for _, evs := range script {
		p := trace.NewCyclePacket(m)
		for _, ev := range evs {
			ci := m.ChannelByName(ev[:1])
			if ci < 0 {
				t.Fatalf("bad channel %q", ev)
			}
			switch ev[1] {
			case '+':
				p.Starts.Set(m.InputIndex(ci))
				p.Contents = append(p.Contents, []byte{byte(len(tr.Packets))})
			case '-':
				p.Ends.Set(ci)
			}
		}
		tr.Append(p)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// replayHand replays tr against a gate world whose app offers outOffers
// output transactions, on both kernels, and returns the fire log after
// checking that the kernels agree on it cycle for cycle.
func replayHand(t *testing.T, tr *trace.Trace, outOffers int) []string {
	t.Helper()
	return replayHandWith(t, tr, outOffers, 0, Options{}).Log
}

// replayHandWith is replayHand with B's READY held low for holdB cycles and
// explicit shim options (Mode and ReplayTrace are filled in). It returns the
// legacy run's app.
func replayHandWith(t *testing.T, tr *trace.Trace, outOffers int, holdB uint64, opts Options) *gateApp {
	t.Helper()
	opts.Mode, opts.ReplayTrace = ModeReplay, tr
	var apps [2]*gateApp
	for k, legacy := range []bool{true, false} {
		w := newGateWorld()
		w.sim.SetLegacy(legacy)
		w.app.holdB = holdB
		for i := 0; i < outOffers; i++ {
			w.app.outQueue = append(w.app.outQueue, []byte{byte(i)})
		}
		sh, err := NewShim(w.sim, w.boundary, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.sim.Run(10000, sh.ReplayDone); err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		apps[k] = w.app
	}
	ref, got := apps[0], apps[1]
	if !reflect.DeepEqual(got.Log, ref.Log) || !reflect.DeepEqual(got.At, ref.At) {
		t.Fatalf("fire logs differ: scheduler %v at %v, legacy %v at %v", got.Log, got.At, ref.Log, ref.At)
	}
	return ref
}

// TestGatingStartWaitsForPriorEnd: B's start is recorded strictly after A's
// end, so B must not fire before A even though both could.
func TestGatingStartWaitsForPriorEnd(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+"},
		{"A-"},
		{"B+", "B-"},
	})
	log := replayHand(t, tr, 0)
	if len(log) != 2 || log[0] != "A" || log[1] != "B" {
		t.Fatalf("replay order %v, want [A B]", log)
	}
}

// TestGatingConcurrentStartsMayShareCycle: A and B recorded in the same
// packet are unordered; both replay promptly.
func TestGatingConcurrentStarts(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+", "B+"},
		{"A-", "B-"},
	})
	log := replayHand(t, tr, 0)
	if len(log) != 2 {
		t.Fatalf("replayed %v", log)
	}
}

// TestGatingOutputEndWaits: the output's recorded end follows A's end, so
// the replayer must withhold READY (and thus "O") until A fires — even
// though the app offers the output transaction from cycle zero.
func TestGatingOutputEndWaits(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+"},
		{"A-"},
		{"O-"},
	})
	log := replayHand(t, tr, 1)
	if len(log) != 2 || log[0] != "A" || log[1] != "O" {
		t.Fatalf("replay order %v, want [A O]", log)
	}
}

// TestGatingOutputBeforeInput: the reverse recording — O's end precedes A's
// start — must replay with O first.
func TestGatingOutputBeforeInput(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"O-"},
		{"A+", "A-"},
	})
	log := replayHand(t, tr, 1)
	if len(log) != 2 || log[0] != "O" || log[1] != "A" {
		t.Fatalf("replay order %v, want [O A]", log)
	}
}

// TestGatingChain: a longer alternating chain must replay in exactly the
// recorded event order.
func TestGatingChain(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+", "A-"},
		{"O-"},
		{"B+", "B-"},
		{"O-"},
		{"A+"},
		{"A-"},
		{"O-"},
	})
	log := replayHand(t, tr, 3)
	want := []string{"A", "O", "B", "O", "A", "O"}
	if len(log) != len(want) {
		t.Fatalf("replay %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("replay %v, want %v", log, want)
		}
	}
}

// TestGatingReplayedContentsMatchTrace: the input replayer must drive the
// recorded content bytes.
func TestGatingReplayedContents(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+"},
		{"A-"},
		{"A+", "A-"},
	})
	// Contents were stamped with the packet index at build time: 0 and 2.
	for _, legacy := range []bool{true, false} {
		w2 := newGateWorld()
		w2.sim.SetLegacy(legacy)
		var got []byte
		probe := &contentProbe{ch: w2.boundary.Channels()[0].App, got: &got}
		w2.sim.Register(probe)
		sh, err := NewShim(w2.sim, w2.boundary, Options{Mode: ModeReplay, ReplayTrace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w2.sim.Run(10000, sh.ReplayDone); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != 0 || got[1] != 2 {
			t.Fatalf("legacy=%v: replayed contents %v, want [0 2]", legacy, got)
		}
	}
}

type contentProbe struct {
	ch  *sim.Channel
	got *[]byte
}

func (p *contentProbe) Name() string { return "content-probe" }
func (p *contentProbe) Eval()        {}
func (p *contentProbe) Tick() {
	if p.ch.Fired() {
		*p.got = append(*p.got, p.ch.Data.Get()[0])
	}
}

// TestGatingLateRelease: with a one-byte-per-cycle trace fetch, B's packet
// is released long after A's transaction completed. Nothing fires in
// between, so only the decoder's packet release can wake the coordinator to
// start B.
func TestGatingLateRelease(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+", "A-"},
		{"B+", "B-"},
	})
	app := replayHandWith(t, tr, 0, 0, Options{StoreBytesPerCycle: 1})
	if !reflect.DeepEqual(app.Log, []string{"A", "B"}) {
		t.Fatalf("replay order %v, want [A B]", app.Log)
	}
	if app.At[1] < app.At[0]+2 {
		t.Fatalf("B fired at cycle %d, A at %d: B's packet was not released late", app.At[1], app.At[0])
	}
}

// TestGatingOutputWaitsOnOtherInput: the output's recorded end follows B's
// end, and the app holds B's READY low for many cycles. The output replayer
// parks on the happens-before gate until B's completion wakes the
// coordinator, then asserts READY.
func TestGatingOutputWaitsOnOtherInput(t *testing.T) {
	const hold = 50
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"B+"},
		{"B-"},
		{"O-"},
	})
	app := replayHandWith(t, tr, 1, hold, Options{})
	if !reflect.DeepEqual(app.Log, []string{"B", "O"}) {
		t.Fatalf("replay order %v, want [B O]", app.Log)
	}
	if app.At[0] < hold || app.At[1] <= app.At[0] {
		t.Fatalf("B fired at cycle %d, O at %d; want B at or after %d, O after B", app.At[0], app.At[1], hold)
	}
}
