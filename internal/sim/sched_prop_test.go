package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// propMod is a scripted combinational block for the scheduler property
// test: its Eval drives every wire in drives with the XOR of its reads and
// a registered phase bit that Tick flips every period cycles. With readsAll
// set it declares the ReadsAll fallback instead of its footprint.
type propMod struct {
	name     string
	reads    []*Wire
	drives   []*Wire
	readsAll bool
	period   int
	phase    bool
	ticks    int
}

func (m *propMod) Name() string { return m.name }

// Eval computes its drives from its reads, so a missed or late
// re-evaluation shows up as a wrong wire value.
//
//lint:sensaudit property test scripts the footprint from randomized fields
func (m *propMod) Eval() {
	v := m.phase
	for _, w := range m.reads {
		v = v != w.Get()
	}
	for _, w := range m.drives {
		w.Set(v)
	}
}

func (m *propMod) Tick() {
	m.ticks++
	if m.period > 0 && m.ticks%m.period == 0 {
		m.phase = !m.phase
	}
}

func (m *propMod) Sensitivity() Sensitivity {
	if m.readsAll {
		return ReadsEverything()
	}
	var sn Sensitivity
	for _, w := range m.reads {
		sn.Reads = append(sn.Reads, w)
	}
	for _, w := range m.drives {
		sn.Drives = append(sn.Drives, w)
	}
	return sn
}

// TestSchedulerMatchesLegacyProperty is the settle worklist's randomized
// oracle: across acyclic random XOR networks — readers often registered
// before their drivers, some with a ReadsAll module, some with an undriven
// stimulus wire set between Steps — every wire must equal the legacy
// fixpoint kernel's value after every cycle, with the dynamic sensitivity
// checker auditing each Eval.
func TestSchedulerMatchesLegacyProperty(t *testing.T) {
	const cycles = 40
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := runPropDesign(t, seed, cycles, true)
			got := runPropDesign(t, seed, cycles, false)
			for c := range ref {
				if got[c] != ref[c] {
					t.Fatalf("cycle %d: scheduler wires %s, legacy %s", c, got[c], ref[c])
				}
			}
		})
	}
}

// runPropDesign builds the seed's random design on the chosen kernel, runs
// it for the given number of cycles and returns every wire's value after
// each cycle, one string per cycle.
func runPropDesign(t *testing.T, seed int64, cycles int, legacy bool) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New()
	s.SetLegacy(legacy)
	s.SetSensitivityCheck(true)

	nm := 3 + rng.Intn(10)
	nw := 4 + rng.Intn(20)
	wires := make([]*Wire, nw)
	for i := range wires {
		wires[i] = s.NewWire(fmt.Sprintf("w%d", i))
	}
	// rank orders modules along the dataflow: a module reads only wires
	// driven by lower-ranked modules (or undriven ones), so the network is
	// acyclic whatever the registration order.
	mods := make([]*propMod, nm)
	for i := range mods {
		mods[i] = &propMod{name: fmt.Sprintf("m%d", i), period: rng.Intn(5)}
	}
	driverRank := make([]int, nw)
	for i, w := range wires {
		driverRank[i] = -1
		if rng.Intn(5) > 0 {
			r := rng.Intn(nm)
			driverRank[i] = r
			mods[r].drives = append(mods[r].drives, w)
		}
	}
	for r, m := range mods {
		for k := rng.Intn(4); k > 0; k-- {
			if wi := rng.Intn(nw); driverRank[wi] < r {
				m.reads = append(m.reads, wires[wi])
			}
		}
	}
	if rng.Intn(3) == 0 {
		mods[rng.Intn(nm)].readsAll = true
	}
	// Registration order is a random permutation of the ranks, so readers
	// are often registered before their drivers.
	for _, i := range rng.Perm(nm) {
		s.Register(mods[i])
	}
	var stimulus []*Wire
	for i, w := range wires {
		if driverRank[i] < 0 {
			stimulus = append(stimulus, w)
		}
	}

	out := make([]string, cycles)
	for c := 0; c < cycles; c++ {
		if len(stimulus) > 0 && rng.Intn(2) == 0 {
			w := stimulus[rng.Intn(len(stimulus))]
			w.Set(!w.Get())
		}
		if err := s.Step(); err != nil {
			t.Fatalf("legacy=%v cycle %d: %v", legacy, c, err)
		}
		b := make([]byte, nw)
		for i, w := range wires {
			b[i] = '0'
			if w.Get() {
				b[i] = '1'
			}
		}
		out[c] = string(b)
	}
	return out
}

// horizonCounter is a minimal quiescence-batchable module: it burns a cycle
// budget in Tick, promises the burn is mechanical via TickHorizon, and
// fast-forwards it in SkipTicks.
type horizonCounter struct {
	NullEval
	name  string
	left  int
	fires int
	wake  func()
}

func (m *horizonCounter) Name() string          { return m.name }
func (m *horizonCounter) TickWatch() []*Channel { return nil }
func (m *horizonCounter) TickStable() bool      { return m.left == 0 }
func (m *horizonCounter) BindTickWake(w func()) { m.wake = w }
func (m *horizonCounter) TickHorizon(now uint64) uint64 {
	if m.left <= 1 {
		return now
	}
	return now + uint64(m.left) - 1
}
func (m *horizonCounter) SkipTicks(n uint64) { m.left -= int(n) }
func (m *horizonCounter) Tick() {
	if m.left > 0 {
		m.left--
		if m.left == 0 {
			m.fires++
		}
	}
}

// TestQuiescenceBatchingSkipsCycles checks the time layer end to end on a
// minimal design: a horizon-declaring counter must reach its firing cycle
// with the bulk of the stretch batch-skipped, at exactly the cycle count
// the legacy kernel takes.
func TestQuiescenceBatchingSkipsCycles(t *testing.T) {
	const budget = 10_000
	run := func(legacy bool) (uint64, Stats) {
		s := New()
		s.SetLegacy(legacy)
		m := &horizonCounter{name: "ctr", left: budget}
		s.Register(m)
		cycles, err := s.Run(5*budget, func() bool { return m.fires > 0 })
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		if m.fires != 1 || m.left != 0 {
			t.Fatalf("legacy=%v: fires=%d left=%d", legacy, m.fires, m.left)
		}
		return cycles, s.Stats()
	}
	legCycles, _ := run(true)
	schCycles, st := run(false)
	if schCycles != legCycles {
		t.Fatalf("batched run took %d cycles, legacy %d", schCycles, legCycles)
	}
	if st.BatchedCycles < budget-10 {
		t.Fatalf("batched only %d of ~%d cycles: %v", st.BatchedCycles, budget, st)
	}
}

// TestStatsLegacyReporting pins the shape counters the bench table prints:
// both kernels report one partition and one worker, and the cycle count
// carries across a SetLegacy flip on a simulator that already ran.
func TestStatsLegacyReporting(t *testing.T) {
	s := New()
	a := &propMod{name: "a"}
	b := &propMod{name: "b"}
	s.Register(a, b)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partitions != 1 || st.Workers != 1 {
		t.Fatalf("scheduler stats: %+v", st)
	}

	s.SetLegacy(true)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Partitions != 1 || st.Workers != 1 {
		t.Fatalf("legacy stats after SetLegacy: %+v", st)
	}
	if st.Cycles != 2 {
		t.Fatalf("cycles not carried across kernel flip: %+v", st)
	}
}

// TestSignalGenerationSurvivesRebuild registers a module after some Steps,
// which rebuilds the schedule: every signal's value must carry over and its
// generation counter must never go backwards.
func TestSignalGenerationSurvivesRebuild(t *testing.T) {
	s := New()
	w := s.NewWire("w")
	d := s.NewData("d", 4)
	inv := s.NewWire("inv")
	s.Register(&propMod{name: "not", reads: []*Wire{w}, drives: []*Wire{inv}, period: 1})
	for i := 0; i < 3; i++ {
		w.Set(i%2 == 0)
		d.SetUint64(uint64(0x100 + i))
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	wv, iv, dv := w.Get(), inv.Get(), d.Uint64()
	wg, ig, dg := w.gen(), inv.gen(), d.gen()
	if wg == 0 || ig == 0 || dg == 0 {
		t.Fatalf("generations not counting: w=%d inv=%d d=%d", wg, ig, dg)
	}

	s.Register(&propMod{name: "late", reads: []*Wire{inv}})
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if w.Get() != wv || inv.Get() != iv || d.Uint64() != dv {
		t.Fatalf("values lost across rebuild: w %v->%v inv %v->%v d %#x->%#x",
			wv, w.Get(), iv, inv.Get(), dv, d.Uint64())
	}
	if w.gen() != wg || inv.gen() != ig || d.gen() != dg {
		t.Fatalf("Build moved generations: w %d->%d inv %d->%d d %d->%d",
			wg, w.gen(), ig, inv.gen(), dg, d.gen())
	}
	for i := 0; i < 4; i++ {
		w.Set(!w.Get())
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if w.gen() <= wg || inv.gen() < ig || d.gen() < dg {
			t.Fatalf("generation went backwards or stalled after a change: w %d->%d inv %d->%d d %d->%d",
				wg, w.gen(), ig, inv.gen(), dg, d.gen())
		}
		wg, ig, dg = w.gen(), inv.gen(), d.gen()
	}
}
