package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vidi/internal/eval"
	"vidi/internal/serve"
	"vidi/internal/trace"
)

const (
	// serveApp is the recording every session uploads: the divergence-free
	// interrupt variant of the DMA app.
	serveApp = "dma-irq"
	// segmentFrames sizes each PutSegment.
	segmentFrames = 16
	// serveClients is the closed loop's client count (the container's
	// nproc); each client has one goroutine and one connection.
	serveClients = 2
)

// serveWL is a vidi-serve hosted on loopback in this process with its
// default settings, on a fresh temporary store, plus the upload prepared
// from a dma-irq recording.
type serveWL struct {
	dir     string
	st      *serve.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*serve.Client

	in           input // app and seed the recording and replay use
	segs         [][]byte
	firstSeq     []uint32
	frames       int
	txns         uint64
	traceBytes   int
	sha          [32]byte
	replayCycles uint64

	next atomic.Int64 // numbers sessions for unique run ids
}

// setupServe records the upload, replays it once directly to learn its
// cycle count, opens a fresh store, starts the server and warms one
// connection per client.
func setupServe(seed int64) (*serveWL, error) {
	in := input{app: serveApp, seed: deriveSeed(seed, "serve/"+serveApp)}
	r, err := recordOne(in, nil)
	if err != nil {
		return nil, err
	}
	w := &serveWL{in: in, txns: r.txns, traceBytes: r.traceBytes, sha: sha256.Sum256(r.body)}
	frames := trace.FrameStream(r.body)
	w.frames = len(frames)
	for off := 0; off < len(frames); off += segmentFrames {
		end := min(off+segmentFrames, len(frames))
		seg := make([]byte, 0, (end-off)*trace.StoragePacketSize)
		for i := off; i < end; i++ {
			seg = append(seg, frames[i][:]...)
		}
		w.segs = append(w.segs, seg)
		w.firstSeq = append(w.firstSeq, uint32(off))
	}
	ref, err := trace.FromBytes(r.body)
	if err != nil {
		return nil, err
	}
	report, res, err := eval.ReplayVerify(in.app, 1, in.seed, ref, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: direct replay: %w", in.app, err)
	}
	if !report.Clean() {
		return nil, fmt.Errorf("%s: direct replay diverged: %s", in.app, report)
	}
	w.replayCycles = res.Cycles

	if w.dir, err = os.MkdirTemp(workDir, "store-"); err != nil {
		return nil, err
	}
	st, _, err := serve.OpenStore(w.dir, serve.StoreOptions{})
	if err != nil {
		os.RemoveAll(w.dir)
		return nil, err
	}
	w.st = st
	w.srv = serve.NewServer(st, serve.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		os.RemoveAll(w.dir)
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	for i := 0; i < serveClients; i++ {
		hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		w.clients = append(w.clients, &serve.Client{BaseURL: w.base, HTTP: hc, SegmentFrames: segmentFrames})
		if err := w.get(hc, "/healthz", nil); err != nil {
			w.closeQuiet()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// get fetches path and hands each response line to line (nil ignores them).
func (w *serveWL) get(hc *http.Client, path string, line func(string)) error {
	resp, err := hc.Get(w.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line != nil {
			line(sc.Text())
		}
	}
	return sc.Err()
}

// close stops the HTTP server and waits for it, drains the job pool, and
// removes the temporary store.
func (w *serveWL) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := w.hs.Shutdown(ctx)
	cancel()
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.srv.Close()
	for _, c := range w.clients {
		c.HTTP.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	// Flush the removal now, so the next run does not pay for this run's
	// deletes in its own journal commits.
	syscall.Sync()
	return err
}

// closeQuiet is close for a set-up being discarded.
func (w *serveWL) closeQuiet() { _ = w.close() }

// sessionOut is one completed, verified session.
type sessionOut struct {
	end time.Time
	dur time.Duration
	job time.Duration // SubmitJob to job done
	put []float64     // client-observed PutSegment latencies, ms
}

func (w *serveWL) meta(tenant string) serve.RunMeta {
	return serve.RunMeta{Tenant: tenant, App: w.in.app, Scale: 1, Seed: w.in.seed}
}

// session is one client session over HTTP: open, upload the recording in
// segmentFrames-frame segments, commit, submit a replay job and wait for
// it. The manifest must be replayable with every uploaded frame and the
// replay must end done and clean.
func (w *serveWL) session(ctx context.Context, c int, t *tracer) (sessionOut, error) {
	cl := w.clients[c]
	runID := fmt.Sprintf("c%d-%06d", c, w.next.Add(1))
	id := t.newRun()
	t0 := time.Now()
	open, err := cl.OpenSession(ctx, runID, w.meta(fmt.Sprintf("bench-%d", c)))
	if err != nil {
		return sessionOut{}, fmt.Errorf("%s: open session: %w", runID, err)
	}
	t1 := time.Now()
	t.add("serve.open_session", "session", id, t0, t1)
	abort := func(step string, err error) (sessionOut, error) {
		_ = cl.Abort(ctx, open.SessionID) // frees the tenant's session slot; the failure is already counted
		return sessionOut{}, fmt.Errorf("%s: %s: %w", runID, step, err)
	}
	out := sessionOut{put: make([]float64, 0, len(w.segs))}
	for i, seg := range w.segs {
		s0 := time.Now()
		if _, err := cl.PutSegment(ctx, open.SessionID, w.firstSeq[i], seg); err != nil {
			return abort("put segment", err)
		}
		s1 := time.Now()
		out.put = append(out.put, ms(s1.Sub(s0)))
		t.add("serve.put_segment", "session", id, s0, s1)
	}
	t2 := time.Now()
	m, err := cl.Commit(ctx, open.SessionID)
	if err != nil {
		return abort("commit", err)
	}
	t3 := time.Now()
	t.add("serve.commit", "session", id, t2, t3)
	if !m.Replayable || m.Frames != uint64(w.frames) {
		return sessionOut{}, fmt.Errorf("%s: manifest replayable=%v frames=%d, uploaded %d", runID, m.Replayable, m.Frames, w.frames)
	}
	j, err := cl.SubmitJob(ctx, serve.JobReplay, runID, "")
	if err != nil {
		return sessionOut{}, fmt.Errorf("%s: submit job: %w", runID, err)
	}
	t4 := time.Now()
	t.add("serve.submit_job", "session", id, t3, t4)
	if j, err = cl.WaitJob(ctx, j.ID); err != nil {
		return sessionOut{}, fmt.Errorf("%s: wait job: %w", runID, err)
	}
	t5 := time.Now()
	t.add("serve.replay_job", "session", id, t3, t5)
	t.add("session", "", id, t0, t5)
	if j.Status != "done" || j.Clean == nil || !*j.Clean {
		return sessionOut{}, fmt.Errorf("%s: replay job %s ended %s: %s%s", runID, j.ID, j.Status, j.Error, j.Report)
	}
	out.end, out.dur, out.job = t5, t5.Sub(t0), t5.Sub(t3)
	return out, nil
}

// tick is a snapshot taken once a second during a loop, for noise bands.
type tick struct {
	at         time.Time
	totalAlloc uint64
}

// loopOut is the outcome of one closed-loop phase.
type loopOut struct {
	start, end time.Time
	sessions   []sessionOut
	ticks      []tick
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
}

// loop runs the closed loop: every client starts sessions back to back
// until d has elapsed; sessions under way at the deadline complete.
func (w *serveWL) loop(d time.Duration, t *tracer, rep *report) loopOut {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out := loopOut{start: time.Now()}
	out.ticks = append(out.ticks, tick{out.start, m0.TotalAlloc})
	deadline := out.start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rep.attempt()
				s, err := w.session(context.Background(), c, t)
				if err != nil {
					rep.fail("serve: %v", err)
					continue
				}
				mu.Lock()
				out.sessions = append(out.sessions, s)
				mu.Unlock()
			}
		}(c)
	}
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		time.Sleep(min(time.Second, deadline.Sub(now)))
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		out.ticks = append(out.ticks, tick{time.Now(), m.TotalAlloc})
	}
	wg.Wait()
	out.end = time.Now()
	runtime.ReadMemStats(&m1)
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.gcs = m1.NumGC - m0.NumGC
	return out
}

func (o loopOut) rate() float64 { return float64(len(o.sessions)) / o.end.Sub(o.start).Seconds() }

// measure runs the closed loop for d and reports the end-to-end metrics.
// A serve run is one session; its simulated cycles are those of the
// session's replay job.
func (w *serveWL) measure(d time.Duration, rep *report) {
	o := w.loop(d, nil, rep)
	rep.rep("serve: %d sessions from %d clients in %.1fs", len(o.sessions), serveClients, o.end.Sub(o.start).Seconds())
	if len(o.sessions) == 0 {
		return
	}
	// Per-window values for the noise bands: sessions completed, heap
	// allocated and session latency in each one-second window.
	var rate, alloc, p50, p90 []float64
	for i := 1; i < len(o.ticks); i++ {
		a, b := o.ticks[i-1], o.ticks[i]
		var lat []float64
		for _, s := range o.sessions {
			if !s.end.Before(a.at) && s.end.Before(b.at) {
				lat = append(lat, ms(s.dur))
			}
		}
		if len(lat) == 0 {
			continue
		}
		rate = append(rate, float64(len(lat))/b.at.Sub(a.at).Seconds())
		alloc = append(alloc, float64(b.totalAlloc-a.totalAlloc)/1e6/float64(len(lat)))
		p50 = append(p50, median(lat))
		p90 = append(p90, quantile(lat, 0.9))
	}
	var lat, put, job []float64
	for _, s := range o.sessions {
		lat = append(lat, ms(s.dur))
		put = append(put, s.put...)
		job = append(job, ms(s.job))
	}
	n := fmt.Sprintf("%d sessions", len(lat))
	rep.set("runs_per_s", "1/s", o.rate(), n+", per-second "+band(rate))
	rep.set("sim_cycles_per_s", "1/s", o.rate()*float64(w.replayCycles),
		fmt.Sprintf("%d replay cycles per session, per-second %s", w.replayCycles, band(rate)))
	rep.set("alloc_mb_per_run", "MB", float64(o.allocBytes)/1e6/float64(len(lat)), n+", per-second "+band(alloc))
	rep.set("trace_bytes_per_txn", "B", float64(w.traceBytes)/float64(w.txns),
		fmt.Sprintf("%d bytes / %d transactions uploaded per session", w.traceBytes, w.txns))
	rep.set("run_ms_p50", "ms", median(lat), "session latency, n="+n+", per-second "+band(p50))
	rep.set("run_ms_p90", "ms", quantile(lat, 0.9), "session latency, n="+n+", per-second "+band(p90))
	rep.note("serve: put_segment_ms p50=%.3f p90=%.3f (n=%d); replay_job_ms p50=%.3f (n=%d)",
		median(put), quantile(put, 0.9), len(put), median(job), len(job))
}

// direct drives one session straight through the store and eval layers,
// without HTTP: the same calls the handlers and the replay job make.
func (w *serveWL) direct(ctx context.Context, c int, t *tracer) error {
	runID := fmt.Sprintf("d%d-%06d", c, w.next.Add(1))
	id := t.newRun()
	span := func(name string, start time.Time) time.Time {
		now := time.Now()
		t.add(name, "direct_session", id, start, now)
		return now
	}
	t0 := time.Now()
	rw, err := w.st.Begin(ctx, runID, w.meta(fmt.Sprintf("direct-%d", c)))
	if err != nil {
		return fmt.Errorf("%s: begin: %w", runID, err)
	}
	ts := span("serve.store.begin", t0)
	for i, seg := range w.segs {
		if _, _, err := rw.PutSegment(ctx, seg, w.firstSeq[i]); err != nil {
			rw.Abort()
			return fmt.Errorf("%s: put segment: %w", runID, err)
		}
		ts = span("serve.store.put_segment", ts)
	}
	body, err := rw.ReadBack(ctx)
	if err != nil {
		rw.Abort()
		return fmt.Errorf("%s: read back: %w", runID, err)
	}
	ts = span("serve.store.read_back", ts)
	frames, err := toFrames(body)
	if err != nil {
		rw.Abort()
		return fmt.Errorf("%s: %w", runID, err)
	}
	tr, err := trace.FromFrames(frames)
	if err != nil {
		rw.Abort()
		return fmt.Errorf("%s: decode at commit: %w", runID, err)
	}
	ts = span("serve.trace.from_frames", ts)
	h := sha256.Sum256(tr.Bytes())
	stats := serve.TraceStats{
		Transactions: tr.TotalTransactions(), Unrecorded: tr.UnrecordedTransactions(),
		LossyPackets: uint64(tr.LossyPackets()), BodySHA256: hex.EncodeToString(h[:]), Replayable: true,
	}
	ts = time.Now()
	m, err := rw.Commit(ctx, stats)
	if err != nil {
		rw.Abort()
		return fmt.Errorf("%s: commit: %w", runID, err)
	}
	ts = span("serve.store.commit", ts)
	if !m.Replayable || m.Frames != uint64(w.frames) {
		return fmt.Errorf("%s: manifest replayable=%v frames=%d, uploaded %d", runID, m.Replayable, m.Frames, w.frames)
	}
	stored, m, err := w.st.ReadFrames(ctx, runID)
	if err != nil {
		return fmt.Errorf("%s: read frames: %w", runID, err)
	}
	ts = span("serve.store.read_frames", ts)
	if tr, err = trace.FromFrames(stored); err != nil {
		return fmt.Errorf("%s: decode for replay: %w", runID, err)
	}
	ts = span("serve.trace.from_frames", ts)
	report, res, err := eval.ReplayVerify(m.App, m.Scale, m.Seed, tr, 0)
	if err != nil {
		return fmt.Errorf("%s: replay: %w", runID, err)
	}
	end := span("serve.eval.replay_verify", ts)
	t.add("direct_session", "", id, t0, end)
	if !report.Clean() || res.Cycles != w.replayCycles {
		return fmt.Errorf("%s: replay clean=%v cycles=%d, want clean in %d cycles", runID, report.Clean(), res.Cycles, w.replayCycles)
	}
	return nil
}

// toFrames reslices a raw stream into storage frames.
func toFrames(b []byte) ([][trace.StoragePacketSize]byte, error) {
	if len(b)%trace.StoragePacketSize != 0 {
		return nil, fmt.Errorf("stream of %d bytes is not whole frames", len(b))
	}
	out := make([][trace.StoragePacketSize]byte, len(b)/trace.StoragePacketSize)
	for i := range out {
		copy(out[i][:], b[i*trace.StoragePacketSize:])
	}
	return out, nil
}

// directLoop runs direct sessions from serveClients goroutines for d.
func (w *serveWL) directLoop(d time.Duration, t *tracer, rep *report) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				rep.attempt()
				if err := w.direct(context.Background(), c, t); err != nil {
					rep.fail("serve direct: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
}

// serverQuantiles scrapes the server's own per-endpoint latency medians
// from /metrics, in milliseconds.
func (w *serveWL) serverQuantiles() (map[string]float64, error) {
	const prefix = `vidi_serve_request_duration_seconds{endpoint="`
	out := map[string]float64{}
	err := w.get(w.clients[0].HTTP, "/metrics", func(l string) {
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok {
			return
		}
		ep, rest, ok := strings.Cut(rest, `",quantile="0.5"} `)
		if !ok {
			return
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[ep] = v * 1e3
		}
	})
	return out, err
}
