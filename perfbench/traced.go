package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vidi/internal/shell"
)

// tracedRun is the one traced run. It covers every layer, so it runs all
// three workloads whatever -workload names, each for a third of the time.
// Within each workload, untraced and traced blocks alternate so the
// tracing overhead is measured against an untraced run of the same
// process. The spans are written out when the run ends.
func tracedRun(opts options) (*report, error) {
	rep := newReport()
	share := time.Duration(opts.seconds * float64(time.Second) / 3)
	fp := fingerprint{Runs: map[string]string{}, Counters: map[string]float64{}, Allocs: map[string]float64{}}
	spans := map[string][]span{}

	for _, name := range []string{"record", "replay"} {
		w, err := setupPass(name, opts.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		t := newTracer()
		w.traced(share, t, rep, &fp)
		spans[name] = t.spans
	}

	w, err := setupServe(opts.seed)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	t := newTracer()
	w.traced(share, t, rep, &fp)
	if err := w.close(); err != nil {
		rep.fail("serve: tear-down: %v", err)
	}
	spans["serve"] = t.spans

	newSystem(opts.seed, rep)

	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", opts.workload, opts.seed))
	if data, err := json.Marshal(spans); err != nil {
		rep.fail("spans: %v", err)
	} else if err := os.WriteFile(path, data, 0o644); err != nil {
		rep.fail("spans: %v", err)
	} else {
		rep.note("spans written to %s", path)
	}
	fp.check(opts.seed, rep)
	return rep, nil
}

// newSystem prices shell.NewSystem on its own: building the platform,
// including zeroing both DRAM models, which every run pays in eval.Build.
func newSystem(seed int64, rep *report) {
	const n = 21
	var d []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		shell.NewSystem(shell.Config{Seed: seed})
		d = append(d, ms(time.Since(t0)))
	}
	rep.set("shell.new_system_ms", "ms", median(d), fmt.Sprintf("median of n=%d standalone calls", n))
}

// traced alternates untraced and traced passes for d and reports the
// per-layer metrics of a pass workload.
func (w *passWL) traced(d time.Duration, t *tracer, rep *report, fp *fingerprint) {
	var plain, traced []pass
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < d {
		plain = append(plain, runPass(w.ins, w.one, nil, rep))
		traced = append(traced, runPass(w.ins, w.one, t, rep))
	}
	rep.rep("%s: %d untraced + %d traced passes over %d inputs in %.1fs",
		w.name, len(plain), len(traced), len(w.ins), time.Since(start).Seconds())
	p := w.name + "."

	runs := t.ms("run")
	total := sum(runs)
	for _, l := range w.layers {
		d := t.ms(l)
		rep.set(p+l+"_ms", "ms", median(d), fmt.Sprintf("median of n=%d spans, p90 %.4g", len(d), quantile(d, 0.9)))
		rep.set(p+l+"_share_pct", "%", 100*sum(d)/total, fmt.Sprintf("of %.0f ms in %d runs", total, len(runs)))
	}

	// Exact-repeat check: every pass over the same inputs must simulate the
	// same cycles and counters, and traced passes must produce the same
	// trace bytes.
	ref := traced[0]
	for _, ps := range [][]pass{plain, traced} {
		for _, q := range ps {
			if err := samePass(ref, q, len(q.runs) > 0 && q.runs[0].sha != [32]byte{}); err != nil {
				rep.fail("%s exact-repeat: %v", w.name, err)
			}
		}
	}
	var c counters
	for _, r := range ref.runs {
		c.add(r)
		fp.Runs[w.name+"/"+r.app] = fmt.Sprintf("seed=%d cycles=%d txns=%d bytes=%d sha256=%x",
			w.input(r.app).seed, r.cycles, r.txns, r.traceBytes, r.sha)
	}
	c.report(p, len(ref.runs), rep, fp)
	var cycles float64
	for _, q := range traced {
		for _, r := range q.runs {
			cycles += float64(r.cycles)
		}
	}
	simMS := sum(t.ms("sim.run"))
	rep.set(p+"sim.ns_per_cycle", "ns", simMS*1e6/cycles, fmt.Sprintf("%.0f ms of sim.run over %.0f cycles", simMS, cycles))

	var allocs []float64
	var gcs, nruns float64
	for _, q := range traced {
		var m float64
		for _, r := range q.runs {
			m += float64(r.mallocs)
		}
		if len(q.runs) > 0 {
			allocs = append(allocs, m/float64(len(q.runs)))
		}
		gcs += float64(q.gcs)
		nruns += float64(len(q.runs))
	}
	rep.set(p+"runtime.allocs_per_run", "count", median(allocs), fmt.Sprintf("median of %d traced passes, %s", len(allocs), band(allocs)))
	rep.set(p+"runtime.gc_cycles", "count", gcs/nruns, fmt.Sprintf("GC cycles per run over %.0f traced runs", nruns))
	fp.Allocs[p+"runtime.allocs_per_run"] = median(allocs)

	var dp, dt []float64
	for _, q := range plain {
		dp = append(dp, q.dur.Seconds())
	}
	for _, q := range traced {
		dt = append(dt, q.dur.Seconds())
	}
	rep.set(p+"trace_overhead_pct", "%", 100*(median(dt)/median(dp)-1),
		fmt.Sprintf("median traced pass %.4gs vs untraced %.4gs", median(dt), median(dp)))
}

func (w *passWL) input(app string) input {
	for _, in := range w.ins {
		if in.app == app {
			return in
		}
	}
	return input{}
}

// samePass compares the deterministic outcome of two passes over the same
// inputs; withSHA also compares trace hashes.
func samePass(a, b pass, withSHA bool) error {
	if len(a.runs) != len(b.runs) {
		return fmt.Errorf("%d verified runs, first traced pass had %d", len(b.runs), len(a.runs))
	}
	for i := range a.runs {
		x, y := a.runs[i], b.runs[i]
		if x.app != y.app || x.cycles != y.cycles || x.txns != y.txns || x.traceBytes != y.traceBytes ||
			deterministic(x) != deterministic(y) || (withSHA && x.sha != y.sha) {
			return fmt.Errorf("%s: run differs from the first traced pass", x.app)
		}
	}
	return nil
}

// deterministic is the part of sim.Stats that must repeat exactly (worker
// busy counts are observational and vary run to run).
func deterministic(r runOut) [8]uint64 {
	s := r.stats
	return [8]uint64{s.Cycles, s.EvalCalls, s.SettleWaves, s.SkippedEvals, s.SkippedTicks,
		s.BatchedCycles, uint64(s.Workers), uint64(s.Partitions)}
}

// counters sums sim.Stats and trace sizes over the runs of one pass.
type counters struct {
	cycles, evals, waves, skippedEvals, skippedTicks, batched float64
	workers                                                   int
	bytes, txns                                               float64
}

func (c *counters) add(r runOut) {
	s := r.stats
	c.cycles += float64(s.Cycles)
	c.evals += float64(s.EvalCalls)
	c.waves += float64(s.SettleWaves)
	c.skippedEvals += float64(s.SkippedEvals)
	c.skippedTicks += float64(s.SkippedTicks)
	c.batched += float64(s.BatchedCycles)
	c.workers = max(c.workers, s.Workers)
	c.bytes += float64(r.traceBytes)
	c.txns += float64(r.txns)
}

// report sets the per-run means of the counters; they repeat exactly for
// the same seed and go into the fingerprint.
func (c *counters) report(p string, n int, rep *report, fp *fingerprint) {
	per := func(name string, v float64) {
		rep.set(p+name, "count", v/float64(n), fmt.Sprintf("per run, mean over one pass of %d runs (exact)", n))
		fp.Counters[p+name] = v / float64(n)
	}
	per("sim.cycles", c.cycles)
	per("sim.eval_calls", c.evals)
	per("sim.settle_waves", c.waves)
	per("sim.skipped_evals", c.skippedEvals)
	per("sim.skipped_ticks", c.skippedTicks)
	per("sim.batched_cycles", c.batched)
	per("trace.bytes", c.bytes)
	per("trace.transactions", c.txns)
	rep.set(p+"sim.workers", "count", float64(c.workers), "largest worker count of any run (default setting)")
	fp.Counters[p+"sim.workers"] = float64(c.workers)
}

// traced runs the HTTP closed loop in alternating untraced and traced
// one-second blocks for two thirds of d, then the direct-call sessions for
// the rest, and reports the serve layer metrics.
func (w *serveWL) traced(d time.Duration, t *tracer, rep *report, fp *fingerprint) {
	var plain, traced []loopOut
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < 2*d/3 {
		plain = append(plain, w.loop(time.Second, nil, rep))
		traced = append(traced, w.loop(time.Second, t, rep))
	}
	directStart := time.Now()
	w.directLoop(d/3, t, rep)
	nDirect := len(t.ms("direct_session"))
	rep.rep("serve: %d untraced + %d traced one-second blocks of %d clients, then %d direct sessions in %.1fs",
		len(plain), len(traced), serveClients, nDirect, time.Since(directStart).Seconds())

	client := []string{"open_session", "put_segment", "commit", "submit_job", "replay_job"}
	for _, ep := range client {
		d := t.ms("serve." + ep)
		rep.set("serve."+ep+"_ms", "ms", median(d), fmt.Sprintf("client-observed, median of n=%d, p90 %.4g", len(d), quantile(d, 0.9)))
	}
	put := t.ms("serve.put_segment")
	rep.set("serve.put_segment_ms_p90", "ms", quantile(put, 0.9), fmt.Sprintf("client-observed, n=%d", len(put)))
	sessions := sum(t.ms("session"))
	rep.set("serve.put_segment_share_pct", "%", 100*sum(put)/sessions, fmt.Sprintf("of %.0f ms in %d sessions", sessions, len(t.ms("session"))))

	if q, err := w.serverQuantiles(); err != nil {
		rep.fail("serve: scrape /metrics: %v", err)
	} else {
		for _, ep := range client[:4] {
			v, ok := q[ep]
			if !ok {
				rep.fail("serve: /metrics has no %s quantile", ep)
				continue
			}
			rep.set("serve.server."+ep+"_ms", "ms", v, "server-side median from /metrics (all sessions of this run)")
		}
	}

	direct := []string{"store.begin", "store.put_segment", "store.read_back", "trace.from_frames",
		"store.commit", "store.read_frames", "eval.replay_verify"}
	for _, l := range direct {
		d := t.ms("serve." + l)
		rep.set("serve."+l+"_ms", "ms", median(d), fmt.Sprintf("direct call, median of n=%d, p90 %.4g", len(d), quantile(d, 0.9)))
	}
	storePut := t.ms("serve.store.put_segment")
	dsess := sum(t.ms("direct_session"))
	rep.set("serve.store.put_segment_share_pct", "%", 100*sum(storePut)/dsess,
		fmt.Sprintf("of %.0f ms in %d direct sessions", dsess, nDirect))
	rep.set("serve.http.put_segment_self_ms", "ms", median(put)-median(storePut),
		"client-observed minus direct-call PutSegment median: HTTP and handler self time")

	var n, mallocs, gcs float64
	for _, o := range traced {
		n += float64(len(o.sessions))
		mallocs += float64(o.mallocs)
		gcs += float64(o.gcs)
	}
	rep.set("serve.runtime.allocs_per_run", "count", mallocs/n, fmt.Sprintf("per HTTP session, client and server, over %.0f traced sessions", n))
	rep.set("serve.runtime.gc_cycles", "count", gcs/n, fmt.Sprintf("GC cycles per HTTP session over %.0f traced sessions", n))

	var rp, rt []float64
	for _, o := range plain {
		rp = append(rp, o.rate())
	}
	for _, o := range traced {
		rt = append(rt, o.rate())
	}
	rep.set("serve.trace_overhead_pct", "%", 100*(median(rp)/median(rt)-1),
		fmt.Sprintf("median sessions/s untraced %.4g vs traced %.4g", median(rp), median(rt)))

	fp.Runs["serve/"+w.in.app] = fmt.Sprintf("seed=%d frames=%d txns=%d bytes=%d sha256=%x replay_cycles=%d",
		w.in.seed, w.frames, w.txns, w.traceBytes, w.sha, w.replayCycles)
}

// fingerprint is the deterministic outcome of a traced run: per-app
// cycles, transactions and trace hashes, and the per-run counters. Two
// traced runs of the same binary with the same seed must agree exactly;
// allocation counts must agree within allocTolerance.
type fingerprint struct {
	Runs     map[string]string  `json:"runs"`
	Counters map[string]float64 `json:"counters"`
	Allocs   map[string]float64 `json:"allocs_per_run"`
}

// allocTolerance bounds the relative difference allowed between two runs'
// allocations per run. The Go runtime allocates a few objects of its own
// at times that depend on scheduling (about ±0.02% per run here), so heap
// object counts do not repeat exactly.
const allocTolerance = 0.001

// check compares fp with the fingerprint an earlier traced run of the same
// binary and seed left in workDir, or stores it when there is none.
func (fp *fingerprint) check(seed int64, rep *report) {
	exe, err := exeHash()
	if err != nil {
		rep.fail("fingerprint: %v", err)
		return
	}
	path := filepath.Join(workDir, fmt.Sprintf("fingerprint-seed%d-%s.json", seed, exe))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		out, err := json.MarshalIndent(fp, "", "  ")
		if err == nil {
			err = os.WriteFile(path, out, 0o644)
		}
		if err != nil {
			rep.fail("fingerprint: %v", err)
			return
		}
		rep.note("exact-repeat fingerprint stored in %s; a later traced run with this seed is checked against it", path)
		return
	}
	if err != nil {
		rep.fail("fingerprint: %v", err)
		return
	}
	var prev fingerprint
	if err := json.Unmarshal(data, &prev); err != nil {
		rep.fail("fingerprint %s: %v", path, err)
		return
	}
	if diffs := fp.diff(prev); len(diffs) > 0 {
		for _, d := range diffs {
			rep.fail("exact-repeat against %s: %s", path, d)
		}
		return
	}
	rep.note("exact-repeat: matches the earlier traced run in %s", path)
}

// diff lists every way fp disagrees with prev.
func (fp *fingerprint) diff(prev fingerprint) []string {
	var out []string
	for _, k := range keys(fp.Runs, prev.Runs) {
		if fp.Runs[k] != prev.Runs[k] {
			out = append(out, fmt.Sprintf("%s: %q, earlier %q", k, fp.Runs[k], prev.Runs[k]))
		}
	}
	for _, k := range keys(fp.Counters, prev.Counters) {
		if a, b := fp.Counters[k], prev.Counters[k]; a != b {
			out = append(out, fmt.Sprintf("%s: %v, earlier %v", k, a, b))
		}
	}
	for _, k := range keys(fp.Allocs, prev.Allocs) {
		if a, b := fp.Allocs[k], prev.Allocs[k]; !(math.Abs(a-b) <= allocTolerance*math.Max(a, b)) {
			out = append(out, fmt.Sprintf("%s: %v, earlier %v (beyond %.1f%%)", k, a, b, 100*allocTolerance))
		}
	}
	return out
}

// keys lists the union of both maps' keys, sorted.
func keys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// exeHash identifies the running binary, so fingerprints of different
// builds are never compared.
func exeHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
