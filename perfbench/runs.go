package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"vidi/internal/apps"
	"vidi/internal/core"
	"vidi/internal/eval"
	"vidi/internal/sim"
	"vidi/internal/trace"
)

// input is one generated run input: an application and the environment
// seed the program sees for it.
type input struct {
	app  string
	seed int64
	// ref is the serialized reference trace and refTxns its transaction
	// count (replay inputs only).
	ref     []byte
	refTxns uint64
}

// runOut is what one record or replay run produced.
type runOut struct {
	app        string
	dur        time.Duration
	cycles     uint64
	txns       uint64
	traceBytes int
	stats      sim.Stats
	body       []byte   // serialized trace (record runs)
	sha        [32]byte // of the serialized recorded or validation trace; traced runs only
	mallocs    uint64   // heap objects allocated by the run; traced runs only
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recordOne makes one R2 recording the way vidi-record does: build the
// system, simulate to completion, golden-check the application, serialize
// the trace. With a tracer, each layer call becomes a span and the run's
// allocations and trace hash are kept.
func recordOne(in input, t *tracer) (runOut, error) {
	id := t.newRun()
	var m0 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	b, err := eval.Build(eval.RunConfig{App: in.app, Seed: in.seed, Cfg: eval.R2})
	if err != nil {
		return runOut{}, fmt.Errorf("%s: build: %w", in.app, err)
	}
	t1 := time.Now()
	cycles, err := b.Sys.Sim.Run(maxCycles, b.Done)
	if err != nil {
		return runOut{}, fmt.Errorf("%s: record: %w", in.app, err)
	}
	t2 := time.Now()
	if err := b.App.Check(); err != nil {
		return runOut{}, fmt.Errorf("%s: golden check: %w", in.app, err)
	}
	t3 := time.Now()
	tr := b.Shim.Trace()
	body := tr.Bytes()
	t4 := time.Now()
	out := runOut{
		app: in.app, dur: t4.Sub(t0), cycles: cycles,
		txns: tr.TotalTransactions(), traceBytes: tr.SizeBytes(),
		stats: b.Sys.Sim.Stats(), body: body,
	}
	if out.txns == 0 {
		return runOut{}, fmt.Errorf("%s: empty trace", in.app)
	}
	if t != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		out.mallocs = m1.Mallocs - m0.Mallocs
		out.sha = sha256.Sum256(body)
		t.add("run", "", id, t0, t4)
		t.add("eval.build", "run", id, t0, t1)
		t.add("sim.run", "run", id, t1, t2)
		t.add("apps.check", "run", id, t2, t3)
		t.add("trace.encode", "run", id, t3, t4)
	}
	return out, nil
}

// replayOne replays a reference trace the way vidi-replay -validate does:
// decode it, run R3 replay, compare the validation trace against it.
func replayOne(in input, t *tracer) (runOut, error) {
	id := t.newRun()
	var m0 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	ref, err := trace.FromBytes(in.ref)
	if err != nil {
		return runOut{}, fmt.Errorf("%s: decode: %w", in.app, err)
	}
	t1 := time.Now()
	b, err := eval.Build(eval.RunConfig{App: in.app, Seed: in.seed, Cfg: eval.R3, ReplayTrace: ref})
	if err != nil {
		return runOut{}, fmt.Errorf("%s: build: %w", in.app, err)
	}
	t2 := time.Now()
	cycles, err := b.Sys.Sim.Run(maxCycles, b.Done)
	if err != nil {
		return runOut{}, fmt.Errorf("%s: replay: %w", in.app, err)
	}
	t3 := time.Now()
	val := b.Shim.Trace()
	report, err := core.Compare(ref, val)
	if err != nil {
		return runOut{}, fmt.Errorf("%s: compare: %w", in.app, err)
	}
	t4 := time.Now()
	if err := checkReplay(in, report, val); err != nil {
		return runOut{}, err
	}
	out := runOut{
		app: in.app, dur: t4.Sub(t0), cycles: cycles,
		txns: val.TotalTransactions(), traceBytes: val.SizeBytes(),
		stats: b.Sys.Sim.Stats(),
	}
	if t != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		out.mallocs = m1.Mallocs - m0.Mallocs
		out.sha = sha256.Sum256(val.Bytes())
		t.add("run", "", id, t0, t4)
		t.add("trace.decode", "run", id, t0, t1)
		t.add("eval.build", "run", id, t1, t2)
		t.add("sim.run", "run", id, t2, t3)
		t.add("core.compare", "run", id, t3, t4)
	}
	return out, nil
}

// checkReplay is the replay oracle. Every app must replay clean with the
// reference's transaction count, except dma: its polling loop is the
// paper's §5.4 divergence example, and its divergences must all be content
// divergences on the status-poll (ocl.R) or read-back (pcis.R) channels.
func checkReplay(in input, report *core.Report, val *trace.Trace) error {
	if n := val.TotalTransactions(); n != in.refTxns {
		return fmt.Errorf("%s: replay recreated %d transactions, reference has %d", in.app, n, in.refTxns)
	}
	if in.app == "dma" {
		for _, d := range report.Divergences {
			if d.Kind != core.ContentDivergence || (d.Name != "ocl.R" && d.Name != "pcis.R") {
				return fmt.Errorf("dma: unexpected divergence: %s", d.Format())
			}
		}
		return nil
	}
	if !report.Clean() {
		return fmt.Errorf("%s: replay diverged: %s", in.app, report)
	}
	return nil
}

// pass is one sweep over every input of a workload.
type pass struct {
	runs       []runOut // verified runs, in input order
	dur        time.Duration
	allocBytes uint64
	gcs        uint32
}

// runPass runs every input once, counting each as an attempted operation.
func runPass(ins []input, one func(input, *tracer) (runOut, error), t *tracer, rep *report) pass {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := pass{runs: make([]runOut, 0, len(ins))}
	t0 := time.Now()
	for _, in := range ins {
		rep.attempt()
		r, err := one(in, t)
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		r.body = nil // keep passes small; the trace bytes are not reused
		p.runs = append(p.runs, r)
	}
	p.dur = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	return p
}

// passWL is a workload made of whole passes over a fixed input list:
// record and replay.
type passWL struct {
	name string
	ins  []input
	one  func(input, *tracer) (runOut, error)
	// layers names the spans one run records, in call order.
	layers []string
}

// measure repeats whole passes until d has elapsed and reports the
// end-to-end metrics. Rates are medians of per-pass rates; the noise band
// of each metric is the spread of its per-pass values.
func (w *passWL) measure(d time.Duration, rep *report) {
	var ps []pass
	start := time.Now()
	for len(ps) == 0 || time.Since(start) < d {
		ps = append(ps, runPass(w.ins, w.one, nil, rep))
	}
	rep.rep("%s: %d passes over %d inputs in %.1fs", w.name, len(ps), len(w.ins), time.Since(start).Seconds())
	endToEnd(rep, ps)
}

// endToEnd derives the end-to-end metrics of record and replay from their
// passes.
func endToEnd(rep *report, ps []pass) {
	var rate, cyc, alloc, p50, p90 []float64
	var bytes, txns float64
	for _, p := range ps {
		if len(p.runs) == 0 {
			continue
		}
		sec := p.dur.Seconds()
		var c float64
		var pl []float64
		for _, r := range p.runs {
			c += float64(r.cycles)
			bytes += float64(r.traceBytes)
			txns += float64(r.txns)
			pl = append(pl, ms(r.dur))
		}
		rate = append(rate, float64(len(p.runs))/sec)
		cyc = append(cyc, c/sec)
		alloc = append(alloc, float64(p.allocBytes)/1e6/float64(len(p.runs)))
		p50 = append(p50, median(pl))
		p90 = append(p90, quantile(pl, 0.9))
	}
	if len(rate) == 0 {
		return
	}
	n := fmt.Sprintf("%d passes", len(rate))
	rep.set("runs_per_s", "1/s", median(rate), "median of "+n+", "+band(rate))
	rep.set("sim_cycles_per_s", "1/s", median(cyc), "median of "+n+", "+band(cyc))
	rep.set("alloc_mb_per_run", "MB", median(alloc), "median of "+n+", "+band(alloc))
	rep.set("trace_bytes_per_txn", "B", bytes/txns, fmt.Sprintf("%.0f bytes / %.0f transactions", bytes, txns))
	// A pass runs every app once, and apps differ in length, so the pooled
	// latencies cluster by app: a pooled percentile would fall between two
	// apps' extreme samples. Each pass's percentile over its apps, taken as
	// the median over passes, is stable.
	per := fmt.Sprintf("median over %d passes of each pass's quantile over %d runs, %s", len(rate), len(ps[0].runs), "%s")
	rep.set("run_ms_p50", "ms", median(p50), fmt.Sprintf(per, band(p50)))
	rep.set("run_ms_p90", "ms", median(p90), fmt.Sprintf(per, band(p90)))
}

// recordInputs is every bundled application with its own seed.
func recordInputs(seed int64) []input {
	var ins []input
	for _, app := range apps.Names() {
		ins = append(ins, input{app: app, seed: deriveSeed(seed, "record/"+app)})
	}
	return ins
}

// slowReplays are left out of the replay workload: each replays for
// 1.5–8 s on the same unbatched path sha already exercises.
var slowReplays = map[string]bool{"sssp": true, "faced": true, "mnet": true}

// setupPass sets up the named pass workload, record or replay.
func setupPass(name string, seed int64) (*passWL, error) {
	if name == "replay" {
		return setupReplay(seed)
	}
	return setupRecord(seed)
}

// setupRecord generates the record inputs and warms up with one unmeasured
// pass, which also proves every input records and golden-checks.
func setupRecord(seed int64) (*passWL, error) {
	w := &passWL{name: "record", ins: recordInputs(seed), one: recordOne,
		layers: []string{"eval.build", "sim.run", "apps.check", "trace.encode"}}
	for _, in := range w.ins {
		if _, err := recordOne(in, nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// setupReplay records, golden-checks and serializes a reference trace for
// every replay input.
func setupReplay(seed int64) (*passWL, error) {
	w := &passWL{name: "replay", one: replayOne,
		layers: []string{"trace.decode", "eval.build", "sim.run", "core.compare"}}
	for _, app := range apps.Names() {
		if slowReplays[app] {
			continue
		}
		in := input{app: app, seed: deriveSeed(seed, "replay/"+app)}
		r, err := recordOne(in, nil)
		if err != nil {
			return nil, fmt.Errorf("reference recording: %w", err)
		}
		in.ref, in.refTxns = r.body, r.txns
		w.ins = append(w.ins, in)
	}
	return w, nil
}
