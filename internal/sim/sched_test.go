package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// nopModule is a minimal module with a configurable name.
type nopModule struct{ name string }

func (m *nopModule) Name() string { return m.name }
func (m *nopModule) Eval()        {}
func (m *nopModule) Tick()        {}

func TestBuildRejectsDuplicateModuleName(t *testing.T) {
	s := New()
	s.Register(&nopModule{name: "dup"}, &nopModule{name: "dup"})
	err := s.Build()
	if err == nil {
		t.Fatal("Build accepted two modules named \"dup\"")
	}
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
	var dn *DuplicateNameError
	if !errors.As(err, &dn) {
		t.Fatalf("err = %T, want *DuplicateNameError", err)
	}
	if dn.Kind != "module" || dn.Name != "dup" {
		t.Fatalf("got %q %q, want module dup", dn.Kind, dn.Name)
	}
	// Step surfaces the same error through the lazy build.
	if err := s.Step(); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("Step() = %v, want ErrDuplicateName", err)
	}
}

func TestBuildRejectsDuplicateSignalAndChannelNames(t *testing.T) {
	cases := []struct {
		kind string
		prep func(s *Simulator)
	}{
		{"wire", func(s *Simulator) { s.NewWire("w"); s.NewWire("w") }},
		{"data", func(s *Simulator) { s.NewData("d", 32); s.NewData("d", 32) }},
		// A channel owns a wire/data triple under derived names, so two
		// channels with one name collide on those too; the channel check runs
		// first so the error names the channel, not a derived wire.
		{"channel", func(s *Simulator) { s.NewChannel("ch", 4); s.NewChannel("ch", 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			s := New()
			tc.prep(s)
			err := s.Build()
			var dn *DuplicateNameError
			if !errors.As(err, &dn) {
				t.Fatalf("Build() = %v, want *DuplicateNameError", err)
			}
			if dn.Kind == "" || dn.Name == "" {
				t.Fatalf("empty fields in %+v", dn)
			}
		})
	}
}

// buildPipelines constructs n independent sender→fifo→receiver pipelines and
// returns the receivers' channels for observation. With jitter set the
// receivers follow a seeded random readiness policy (so the pipelines
// exercise interesting interleavings); without it they are always ready and
// the whole design goes quiet once drained.
func buildPipelines(s *Simulator, n, payloads int, jitter bool) ([]*Sender, []*Channel) {
	senders := make([]*Sender, n)
	outs := make([]*Channel, n)
	for i := 0; i < n; i++ {
		in := s.NewChannel(fmt.Sprintf("p%d.in", i), 4)
		out := s.NewChannel(fmt.Sprintf("p%d.out", i), 4)
		snd := NewSender(fmt.Sprintf("p%d.snd", i), in)
		fifo := NewFifo(fmt.Sprintf("p%d.fifo", i), in, out, 2)
		rcv := NewReceiver(fmt.Sprintf("p%d.rcv", i), out)
		if jitter {
			rng := NewRand(int64(1000 + i))
			rcv.Policy = JitterPolicy(rng, 70)
		}
		s.Register(snd, fifo, rcv)
		for p := 0; p < payloads; p++ {
			snd.Push(payload(i*100 + p))
		}
		senders[i] = snd
		outs[i] = out
	}
	return senders, outs
}

// tapProbe records every payload that fires on a channel, with the cycle.
type tapProbe struct {
	NullEval
	name string
	s    *Simulator
	ch   *Channel
	log  []string
}

func (p *tapProbe) Name() string { return p.name }
func (p *tapProbe) Tick() {
	if p.ch.Fired() {
		p.log = append(p.log, fmt.Sprintf("%d:%x", p.s.Cycle(), p.ch.Data.Get()))
	}
}

// runPipelines executes the n-pipeline design under the chosen kernel, with
// any extra modules registered after the pipelines, and returns each
// pipeline's fire log.
func runPipelines(t *testing.T, n, payloads int, legacy bool, extra ...Module) [][]string {
	t.Helper()
	s := New()
	s.SetLegacy(legacy)
	senders, outs := buildPipelines(s, n, payloads, true)
	probes := make([]*tapProbe, n)
	for i, out := range outs {
		probes[i] = &tapProbe{name: fmt.Sprintf("p%d.tap", i), s: s, ch: out}
		s.Register(probes[i])
	}
	s.Register(extra...)
	done := func() bool {
		for _, snd := range senders {
			if !snd.Idle() {
				return false
			}
		}
		return true
	}
	if _, err := s.Run(100000, done); err != nil {
		t.Fatalf("run (legacy=%v): %v", legacy, err)
	}
	logs := make([][]string, n)
	for i, p := range probes {
		logs[i] = p.log
	}
	return logs
}

// TestPartitionedParallelMatchesLegacy is the kernel's determinism
// regression: N independent pipelines must produce cycle-identical fire
// sequences on the legacy fixpoint kernel and the scheduler.
func TestPartitionedParallelMatchesLegacy(t *testing.T) {
	const n, payloads = 8, 50
	ref := runPipelines(t, n, payloads, true)
	got := runPipelines(t, n, payloads, false)
	for i := range ref {
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("pipeline %d fired %d times, legacy %d", i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("pipeline %d event %d = %s, legacy %s", i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// goroutineProbe records the largest goroutine count seen from inside the
// kernel: its Eval runs on wave 0 of every cycle (no Stable) and its Tick
// every cycle (no tick gating).
type goroutineProbe struct{ max int }

func (p *goroutineProbe) Name() string             { return "goroutines" }
func (p *goroutineProbe) Eval()                    { p.note() }
func (p *goroutineProbe) Tick()                    { p.note() }
func (p *goroutineProbe) Sensitivity() Sensitivity { return Sensitivity{} }

func (p *goroutineProbe) note() {
	if n := runtime.NumGoroutine(); n > p.max {
		p.max = n
	}
}

// TestRunStartsNoGoroutine pins that a simulation runs entirely on its
// caller's goroutine: a design of independent pipelines never sees more
// goroutines from inside Eval or Tick than existed before Run. Parallelism
// belongs across runs; a per-phase fan-out inside one costs more than the
// settle work it would spread. Not parallel, so no other test's goroutines
// interfere; GOMAXPROCS is raised to 2 so a fan-out keyed on it would show.
func TestRunStartsNoGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	probe := &goroutineProbe{}
	before := runtime.NumGoroutine()
	runPipelines(t, 8, 50, false, probe)
	if probe.max == 0 {
		t.Fatal("probe module never ran")
	}
	if probe.max > before {
		t.Fatalf("Run raised the goroutine count from %d to %d", before, probe.max)
	}
}

func TestStatsCountSkippedEvals(t *testing.T) {
	s := New()
	senders, _ := buildPipelines(s, 2, 3, false)
	done := func() bool { return senders[0].Idle() && senders[1].Idle() }
	if _, err := s.Run(10000, done); err != nil {
		t.Fatal(err)
	}
	// Drain the Touch marks left by the final active cycle, then idle the
	// design: every module is stable, so the dirty-set kernel should stop
	// evaluating entirely.
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	for i := 0; i < 100; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	if after.EvalCalls != before.EvalCalls {
		t.Errorf("idle cycles still evaluated: %d -> %d", before.EvalCalls, after.EvalCalls)
	}
	if got := after.SkippedEvals - before.SkippedEvals; got == 0 {
		t.Error("idle cycles recorded no skipped evals")
	}
	if after.Cycles != s.Cycle() {
		t.Errorf("Stats.Cycles = %d, Cycle() = %d", after.Cycles, s.Cycle())
	}
}

// gatedCounter is a TickSensitive module that counts its Ticks: it watches
// one channel and claims stability, so the scheduler should only tick it on
// cycles with handshake activity (or after an explicit wake).
type gatedCounter struct {
	NullEval
	name  string
	ch    *Channel
	wake  func()
	ticks int
}

func (g *gatedCounter) Name() string             { return g.name }
func (g *gatedCounter) Tick()                    { g.ticks++ }
func (g *gatedCounter) TickWatch() []*Channel    { return []*Channel{g.ch} }
func (g *gatedCounter) TickStable() bool         { return true }
func (g *gatedCounter) BindTickWake(wake func()) { g.wake = wake }

func TestTickGatingSkipsQuietModules(t *testing.T) {
	s := New()
	ch := s.NewChannel("ch", 4)
	snd := NewSender("snd", ch)
	rcv := NewReceiver("rcv", ch)
	cnt := &gatedCounter{name: "cnt", ch: ch}
	s.Register(snd, rcv, cnt)

	// One payload: the transaction starts and fires, then the design idles.
	snd.Push(payload(1))
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fires := int(ch.Ends())
	if fires != 1 {
		t.Fatalf("channel fired %d times, want 1", fires)
	}
	// The counter ticks on cycle 0 (everything ticks once after Build) and on
	// each cycle with handshake activity on its watched channel: the start
	// and the fire, which here land on the same cycle.
	if cnt.ticks != 2 {
		t.Errorf("gated module ticked %d times over 50 cycles, want 2", cnt.ticks)
	}
	st := s.Stats()
	if st.SkippedTicks == 0 {
		t.Error("no ticks skipped on an idle design")
	}

	// An explicit wake runs exactly one more Tick.
	before := cnt.ticks
	cnt.wake()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if cnt.ticks != before+1 {
		t.Errorf("ticks after wake = %d, want %d", cnt.ticks, before+1)
	}
}

func TestTickGatingIdleDesignStopsTicking(t *testing.T) {
	s := New()
	senders, _ := buildPipelines(s, 2, 3, false)
	done := func() bool { return senders[0].Idle() && senders[1].Idle() }
	if _, err := s.Run(10000, done); err != nil {
		t.Fatal(err)
	}
	// Let the drained design settle into full sleep, then count skips: with
	// senders, fifos and always-ready receivers all gated, the scheduler
	// should skip its whole tick scan on every idle cycle.
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	const idle = 100
	for i := 0; i < idle; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	wantSkips := uint64(idle * 6) // 2 pipelines x 3 modules, all asleep
	if got := after.SkippedTicks - before.SkippedTicks; got != wantSkips {
		t.Errorf("idle design skipped %d ticks over %d cycles, want %d", got, idle, wantSkips)
	}
}

// feeder pushes a payload into a Sender from its own Tick every period
// cycles: coupling through Go state the signal graph cannot see, which
// reaches the sender only through Push's Touch and wake hooks.
type feeder struct {
	NullEval
	name   string
	snd    *Sender
	period int
	left   int
	ticks  int
}

func (f *feeder) Name() string { return f.name }
func (f *feeder) Tick() {
	f.ticks++
	if f.left > 0 && f.ticks%f.period == 0 {
		f.snd.Push(payload(f.left))
		f.left--
	}
}

// TestOutOfBandPushMatchesLegacy pins the ordering contract of Touch and
// the tick wake hook: a feeder registered before its sender lands its Push
// in the same clock edge, one registered after lands it in the next — on
// the scheduler exactly as on the legacy kernel, for either order.
func TestOutOfBandPushMatchesLegacy(t *testing.T) {
	run := func(legacy, feederFirst bool) []string {
		s := New()
		s.SetLegacy(legacy)
		in := s.NewChannel("in", 4)
		out := s.NewChannel("out", 4)
		snd := NewSender("snd", in)
		fifo := NewFifo("fifo", in, out, 2)
		rcv := NewReceiver("rcv", out)
		rcv.Policy = JitterPolicy(NewRand(7), 60)
		f := &feeder{name: "feeder", snd: snd, period: 3, left: 20}
		tap := &tapProbe{name: "tap", s: s, ch: out}
		if feederFirst {
			s.Register(f, snd, fifo, rcv, tap)
		} else {
			s.Register(snd, fifo, rcv, tap, f)
		}
		done := func() bool { return f.left == 0 && snd.Idle() && len(tap.log) == 20 }
		if _, err := s.Run(10000, done); err != nil {
			t.Fatalf("legacy=%v feederFirst=%v: %v", legacy, feederFirst, err)
		}
		return tap.log
	}
	for _, first := range []bool{true, false} {
		ref, got := run(true, first), run(false, first)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("feederFirst=%v: scheduler fires %v, legacy %v", first, got, ref)
		}
	}
}

// mirror is a module without a Sensitivity declaration (so it gets the
// ReadsAll fallback) whose Eval copies one wire onto another it never
// declares: only the fallback's re-evaluate-on-any-change rule keeps the
// copy current.
type mirror struct {
	src, dst *Wire
}

func (m *mirror) Name() string { return "mirror" }
func (m *mirror) Eval()        { m.dst.Set(m.src.Get()) }
func (m *mirror) Tick()        {}

// TestReadsAllFallbackMatchesLegacy registers a ReadsAll module first, so
// every wire it copies changes later in registration order: the scheduler
// must re-run it in a later wave of the same cycle, keep the copy equal to
// its source after every settle, report the module in ReadsAllModules,
// and leave the pipelines' fire sequences identical to the legacy kernel's.
func TestReadsAllFallbackMatchesLegacy(t *testing.T) {
	run := func(legacy bool) ([]string, Stats) {
		s := New()
		s.SetLegacy(legacy)
		dst := s.NewWire("mirror.dst")
		m := &mirror{dst: dst}
		s.Register(m)
		senders, outs := buildPipelines(s, 3, 10, true)
		m.src = outs[1].Valid
		tap := &tapProbe{name: "tap", s: s, ch: outs[1]}
		s.Register(tap)
		for c := 0; c < 400; c++ {
			if err := s.Step(); err != nil {
				t.Fatalf("legacy=%v: %v", legacy, err)
			}
			if dst.Get() != m.src.Get() {
				t.Fatalf("legacy=%v cycle %d: mirror %v, source %v", legacy, c, dst.Get(), m.src.Get())
			}
		}
		for _, snd := range senders {
			if !snd.Idle() {
				t.Fatalf("legacy=%v: pipelines did not drain", legacy)
			}
		}
		return tap.log, s.Stats()
	}
	ref, _ := run(true)
	got, st := run(false)
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("scheduler fires %v, legacy %v", got, ref)
	}
	if len(st.ReadsAllModules) != 1 || st.ReadsAllModules[0] != "mirror" {
		t.Fatalf("ReadsAllModules = %v, want [mirror]", st.ReadsAllModules)
	}
}
