package serve

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vidi/internal/trace"
)

// Trace-store layout, one directory per run under the store root
// (artifacts/<run_id>/ in a deployment):
//
//	<root>/<run_id>/journal            fsync'd append-only operation log
//	<root>/<run_id>/segs/<hh>/<hash>.seg   content-addressed segments,
//	                                   sharded by the first hash byte
//	<root>/<run_id>/manifest.json      integrity manifest, written at commit
//	<root>/<run_id>/quarantine/        damaged artifacts moved aside
//	<root>/.quarantine/<run_id>...     whole runs recovery refused to trust
//
// Every mutation is journaled before it happens and journaled again when
// it is durable ("put" → write+fsync+rename → "done"), so the recovery
// scan can classify any crash point: a put without a done is a torn write
// (quarantined), a done segment re-verifies by content hash, and a run
// without a commit record resumes from its verified segments instead of
// serving a partial trace. Journal lines carry their own CRC so a torn
// tail line is detected and dropped rather than misparsed.

// RunMeta is the replay identity of an uploaded run: everything a worker
// needs to re-execute it.
type RunMeta struct {
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	Scale  int    `json:"scale"`
	Seed   int64  `json:"seed"`
}

// SegmentRef is one content-addressed segment in stream order.
type SegmentRef struct {
	// Hash is the sha256 of the segment's raw frame bytes; also its
	// filename. Identical content dedupes to one file.
	Hash string `json:"hash"`
	// Bytes is the segment length (a multiple of the storage frame size).
	Bytes int `json:"bytes"`
	// Frames is Bytes / trace.StoragePacketSize.
	Frames int `json:"frames"`
	// FirstSeq is the storage-frame sequence number of the segment's first
	// frame within the run's stream.
	FirstSeq uint32 `json:"first_seq"`
}

// Manifest is the committed integrity record of a run: the only thing the
// service ever trusts about stored bytes.
type Manifest struct {
	Version int    `json:"version"`
	RunID   string `json:"run_id"`
	RunMeta
	Segments []SegmentRef `json:"segments"`
	// Frames/Bytes total the stored stream.
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// BodySHA256 is the hash of the deframed trace body — an end-to-end
	// check spanning frame reassembly, not just per-segment integrity.
	BodySHA256 string `json:"body_sha256"`
	// Transactions/Unrecorded/LossyPackets account the decoded trace.
	// Unrecorded > 0 marks a degraded recording: the trace carries gap
	// markers, replay stays exact and divergence detection must report
	// exactly this many transactions as unrecorded.
	Transactions uint64 `json:"transactions"`
	Unrecorded   uint64 `json:"unrecorded"`
	LossyPackets uint64 `json:"lossy_packets"`
	// UploadGapFrames counts frames the client declared lost in transit.
	// Such a run is preserved and listable but not replayable — the frame
	// stream has holes, so serving it as a trace would mis-decode.
	UploadGapFrames uint64 `json:"upload_gap_frames,omitempty"`
	// Replayable reports whether the stored stream decodes to a valid
	// trace (false for upload-gapped runs and for traces that decode but
	// fail trace.Validate).
	Replayable bool `json:"replayable"`
	// StoredBytes totals the on-disk size of the run's unique segment
	// files (the flate storage codec usually makes this smaller than
	// Bytes); CompressionRatio is Bytes/StoredBytes.
	StoredBytes      uint64  `json:"stored_bytes,omitempty"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

// Degraded reports whether the run carries gap markers of either kind.
func (m *Manifest) Degraded() bool { return m.Unrecorded > 0 || m.UploadGapFrames > 0 }

// TraceStats is the commit-time accounting of the decoded trace.
type TraceStats struct {
	Transactions uint64
	Unrecorded   uint64
	LossyPackets uint64
	BodySHA256   string
	Replayable   bool
	UploadGaps   uint64
}

// CorruptRunError reports stored bytes that failed an integrity check. It
// wraps trace.ErrCorrupt: detected corruption is the same typed condition
// whether it is caught in transit or at rest.
type CorruptRunError struct {
	RunID    string
	Artifact string
	Reason   string
}

// Error implements error.
func (e *CorruptRunError) Error() string {
	return fmt.Sprintf("serve: run %s: corrupt %s: %s", e.RunID, e.Artifact, e.Reason)
}

// Unwrap keeps errors.Is(err, trace.ErrCorrupt) working.
func (e *CorruptRunError) Unwrap() error { return trace.ErrCorrupt }

// Quarantine is one artifact the recovery scan refused to trust.
type Quarantine struct {
	RunID    string
	Artifact string // "run", "manifest", "journal", or a segment hash
	Reason   string
}

// Recovery is the report of a store-open scan.
type Recovery struct {
	// Intact lists committed runs whose manifest and every segment
	// re-verified by hash.
	Intact []string
	// Resumable lists uncommitted runs with verified partial uploads; a
	// client may re-open the run and continue (already-durable segments
	// dedupe by content hash).
	Resumable []string
	// Quarantined lists everything moved aside.
	Quarantined []Quarantine
}

// String renders the report.
func (r *Recovery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: %d intact, %d resumable, %d quarantined",
		len(r.Intact), len(r.Resumable), len(r.Quarantined))
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "\n  quarantined %s/%s: %s", q.RunID, q.Artifact, q.Reason)
	}
	return b.String()
}

// StoreOptions tunes the store's hardened write path.
type StoreOptions struct {
	// JitterSeed seeds the deterministic retry jitter (0 picks a fixed
	// default so tests are reproducible by default).
	JitterSeed int64
	// MaxRetries bounds attempts per write (0 selects 4).
	MaxRetries int
	// BackoffBase is the initial retry delay (0 selects 2ms).
	BackoffBase time.Duration
	// BreakerThreshold / BreakerCooldown configure the write-path circuit
	// breaker (zeros select 3 failures / 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// Store is the crash-safe, content-addressed trace store.
type Store struct {
	root    string
	retr    *retrier
	breaker *Breaker

	// FaultFn, when set, injects write-path faults: it is consulted before
	// every durable operation with the operation name and may return an
	// error to fail that attempt (the chaos harness's disk hook —
	// mirroring core.Store.FaultFn). Retries re-consult it, so a transient
	// fault heals and a sustained one escalates through the breaker.
	FaultFn func(op string) error

	mu   sync.Mutex
	runs map[string]*runState
}

type runState struct {
	manifest *Manifest   // non-nil once committed and verified
	partial  *partialRun // non-nil for resumable uncommitted runs
	writer   *RunWriter  // non-nil while a session writes
	gone     string      // non-empty: quarantined, with reason
}

type partialRun struct {
	meta RunMeta
	segs map[string]SegmentRef // verified durable segments by hash
}

// OpenStore opens (or creates) a store rooted at root and runs the
// recovery scan: journals are replayed, torn writes quarantined, committed
// manifests re-verified hash by hash. The store never serves bytes the
// scan did not vouch for.
func OpenStore(root string, opts StoreOptions) (*Store, *Recovery, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	br := &Breaker{Threshold: opts.BreakerThreshold, Cooldown: opts.BreakerCooldown}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 0x51d1
	}
	st := &Store{
		root:    root,
		breaker: br,
		retr:    newRetrier(seed, opts.MaxRetries, opts.BackoffBase, br),
		runs:    map[string]*runState{},
	}
	rec, err := st.recover()
	if err != nil {
		return nil, nil, err
	}
	return st, rec, nil
}

// Breaker exposes the write-path breaker (for telemetry and tests).
func (st *Store) Breaker() *Breaker { return st.breaker }

// Root returns the store root directory.
func (st *Store) Root() string { return st.root }

func (st *Store) runDir(runID string) string { return filepath.Join(st.root, runID) }
func (st *Store) segPath(runID, hash string) string {
	return filepath.Join(st.runDir(runID), "segs", hash[:2], hash+".seg")
}

// validRunID restricts run ids to a path-safe charset.
func validRunID(id string) bool {
	if id == "" || len(id) > 128 || strings.HasPrefix(id, ".") {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// validLabel restricts tenant/app names to a printable, whitespace-free
// charset so they journal and log without framing ambiguity.
func validLabel(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.ContainsRune("-_.:@/+", c):
		default:
			return false
		}
	}
	return true
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ---- storage codec ----

// Segment files are stored behind a 4-byte codec header: "VZS1" + flate
// stream (the normal case) or "VZS0" + raw bytes (incompressible
// payloads). Content addressing is codec-invisible — SegmentRef.Hash
// stays the sha256 of the RAW frame bytes, so dedup, journals, manifests
// and the HTTP API never see compression. A file without a codec magic is
// read as a legacy raw segment, which also keeps torn partial writes
// classified by the raw length check instead of a decode error.

var (
	segMagicFlate = []byte("VZS1")
	segMagicRaw   = []byte("VZS0")
)

// encodeSegment compresses raw frame bytes for disk, falling back to the
// raw container when flate does not help.
func encodeSegment(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Write(segMagicFlate)
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err == nil {
		_, werr := zw.Write(raw)
		if cerr := zw.Close(); werr == nil && cerr == nil && buf.Len() < len(raw)+len(segMagicRaw) {
			return buf.Bytes()
		}
	}
	out := make([]byte, 0, len(raw)+len(segMagicRaw))
	out = append(out, segMagicRaw...)
	return append(out, raw...)
}

// decodeSegment recovers the raw frame bytes from a stored segment file.
func decodeSegment(stored []byte) ([]byte, error) {
	switch {
	case bytes.HasPrefix(stored, segMagicFlate):
		zr := flate.NewReader(bytes.NewReader(stored[len(segMagicFlate):]))
		raw, err := io.ReadAll(zr)
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("segment codec: %w", err)
		}
		return raw, nil
	case bytes.HasPrefix(stored, segMagicRaw):
		return stored[len(segMagicRaw):], nil
	default:
		return stored, nil // legacy uncompressed segment
	}
}

// ---- journal ----

// journal line: "<crc32:08x> <op> <args...>", CRC over everything after
// the separating space. A torn tail (partial line, missing newline, or
// CRC mismatch on the final line) is dropped by recovery; a damaged line
// anywhere else condemns the journal. Args are percent-escaped so the
// space-separated, line-framed format survives any argument bytes.
func journalLine(op string, args ...string) string {
	rest := op
	for _, a := range args {
		rest += " " + escapeArg(a)
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(rest)), rest)
}

// escapeArg percent-encodes '%', whitespace, and control bytes so a
// journal argument can never shift fields or split lines; the bare
// sentinel "%" stands for an empty argument. Safe strings (hashes,
// numbers, plain names) round-trip unchanged.
func escapeArg(s string) string {
	if s == "" {
		return "%"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '%' || c <= ' ' || c == 0x7f {
			fmt.Fprintf(&b, "%%%02x", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeArg(s string) string {
	if s == "%" {
		return ""
	}
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

type journalRec struct {
	op   string
	args []string
}

// parseJournal returns the intact records and whether a torn tail was
// dropped. Damage on the final line of the file is a torn write (tolerated
// and dropped); damage anywhere earlier means the journal itself cannot be
// trusted and returns an error.
func parseJournal(data []byte) ([]journalRec, bool, error) {
	var recs []journalRec
	lines := strings.Split(string(data), "\n")
	// Drop the empty element a well-formed trailing newline produces; if
	// the last element is non-empty the final append lost its newline —
	// already evidence of a torn write.
	if n := len(lines); lines[n-1] == "" {
		lines = lines[:n-1]
	}
	for i, line := range lines {
		bad := ""
		switch {
		case len(line) < 10 || line[8] != ' ' || strings.TrimSpace(line[9:]) == "":
			bad = "malformed line"
		default:
			crcv, err := strconv.ParseUint(line[:8], 16, 32)
			if err != nil || uint32(crcv) != crc32.ChecksumIEEE([]byte(line[9:])) {
				bad = "CRC mismatch"
			}
		}
		if bad != "" {
			if i == len(lines)-1 {
				return recs, true, nil // torn tail: drop and report
			}
			return nil, false, fmt.Errorf("journal line %d: %s", i+1, bad)
		}
		fields := strings.Fields(line[9:])
		args := make([]string, len(fields)-1)
		for k, f := range fields[1:] {
			args[k] = unescapeArg(f)
		}
		recs = append(recs, journalRec{op: fields[0], args: args})
	}
	// A final line that lost its newline but still checksums is the
	// moment before the fsync landed; it is intact, keep it.
	return recs, false, nil
}

// appendJournal durably appends one record through the hardened write
// path.
func (w *RunWriter) appendJournal(ctx context.Context, op string, args ...string) error {
	line := journalLine(op, args...)
	return w.st.retr.do(ctx, "journal append", func() error {
		if err := w.st.fault("journal append"); err != nil {
			return err
		}
		if _, err := w.journal.WriteString(line); err != nil {
			return err
		}
		return w.journal.Sync()
	})
}

func (st *Store) fault(op string) error {
	if st.FaultFn != nil {
		return st.FaultFn(op)
	}
	return nil
}

// ---- writing ----

// RunWriter is one session's handle on an in-flight run.
type RunWriter struct {
	st    *Store
	runID string
	meta  RunMeta

	mu        sync.Mutex
	journal   *os.File
	refs      []SegmentRef
	durable   map[string]SegmentRef // hash → durable segment (incl. resumed)
	gaps      uint64
	frames    uint64
	bytes     uint64
	closed    bool
	committed bool
}

// Begin opens a writer for runID. A committed or quarantined run refuses;
// a resumable run (crash recovery) re-opens with its verified segments
// available for content-addressed dedup — the client re-uploads from
// sequence zero and already-durable segments cost no disk writes.
func (st *Store) Begin(ctx context.Context, runID string, meta RunMeta) (*RunWriter, error) {
	if !validRunID(runID) {
		return nil, fmt.Errorf("serve: invalid run id %q", runID)
	}
	st.mu.Lock()
	rs := st.runs[runID]
	if rs == nil {
		rs = &runState{}
		st.runs[runID] = rs
	}
	switch {
	case rs.gone != "":
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: run %s is quarantined: %s", runID, rs.gone)
	case rs.manifest != nil:
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: run %s is already committed", runID)
	case rs.writer != nil:
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: run %s has an active writer", runID)
	}
	var resume *partialRun
	if rs.partial != nil {
		if rs.partial.meta != meta {
			st.mu.Unlock()
			return nil, fmt.Errorf("serve: run %s resume metadata mismatch", runID)
		}
		resume = rs.partial
	}
	w := &RunWriter{st: st, runID: runID, meta: meta, durable: map[string]SegmentRef{}}
	rs.writer = w
	st.mu.Unlock()

	release := func() {
		st.mu.Lock()
		rs.writer = nil
		st.mu.Unlock()
	}
	dir := st.runDir(runID)
	if err := os.MkdirAll(filepath.Join(dir, "segs"), 0o755); err != nil {
		release()
		return nil, err
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		release()
		return nil, err
	}
	w.journal = jf
	if resume != nil {
		for h, ref := range resume.segs {
			w.durable[h] = ref
		}
	}
	if err := w.appendJournal(ctx, "open", meta.Tenant, meta.App,
		strconv.Itoa(meta.Scale), strconv.FormatInt(meta.Seed, 10)); err != nil {
		jf.Close()
		release()
		return nil, err
	}
	return w, nil
}

// PutSegment durably stores one segment of storage frames: journal "put",
// write temp + fsync + rename (skipped when the content hash is already
// durable), journal "done". The returned ref joins the stream order; the
// bool reports content-addressed dedup (the bytes were already durable —
// e.g. recovered from a crashed session and re-uploaded on resume).
func (w *RunWriter) PutSegment(ctx context.Context, data []byte, firstSeq uint32) (SegmentRef, bool, error) {
	if len(data) == 0 || len(data)%trace.StoragePacketSize != 0 {
		return SegmentRef{}, false, fmt.Errorf("serve: segment length %d is not a whole number of frames", len(data))
	}
	ref := SegmentRef{
		Hash:     hashBytes(data),
		Bytes:    len(data),
		Frames:   len(data) / trace.StoragePacketSize,
		FirstSeq: firstSeq,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return SegmentRef{}, false, fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	endJournal := stageTimer(ctx, "journal")
	err := w.appendJournal(ctx, "put", ref.Hash, strconv.Itoa(ref.Bytes),
		strconv.Itoa(ref.Frames), strconv.FormatUint(uint64(firstSeq), 10))
	endJournal()
	if err != nil {
		return SegmentRef{}, false, err
	}
	_, dedup := w.durable[ref.Hash]
	if !dedup {
		path := w.st.segPath(w.runID, ref.Hash)
		stored := encodeSegment(data)
		endWrite := stageTimer(ctx, "write")
		err := w.st.retr.do(ctx, "segment write", func() error {
			if err := w.st.fault("segment write"); err != nil {
				return err
			}
			return atomicWrite(path, stored)
		})
		endWrite()
		if err != nil {
			return SegmentRef{}, false, err
		}
	}
	endJournal = stageTimer(ctx, "journal")
	err = w.appendJournal(ctx, "done", ref.Hash)
	endJournal()
	if err != nil {
		return SegmentRef{}, false, err
	}
	w.durable[ref.Hash] = ref
	w.refs = append(w.refs, ref)
	w.frames += uint64(ref.Frames)
	w.bytes += uint64(ref.Bytes)
	return ref, dedup, nil
}

// MarkGap journals frames the client permanently failed to deliver. The
// run commits as degraded and unreplayable — preserved, never served as
// an intact trace.
func (w *RunWriter) MarkGap(ctx context.Context, frames uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	if err := w.appendJournal(ctx, "gap", strconv.FormatUint(frames, 10)); err != nil {
		return err
	}
	w.gaps += frames
	return nil
}

// GapFrames returns the declared in-transit loss so far.
func (w *RunWriter) GapFrames() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gaps
}

// ReadBack re-reads every stored segment from disk in stream order,
// verifying content hashes — commit validates what was persisted, not
// what the handler held in memory.
func (w *RunWriter) ReadBack(ctx context.Context) ([]byte, error) {
	w.mu.Lock()
	refs := append([]SegmentRef(nil), w.refs...)
	w.mu.Unlock()
	defer stageTimer(ctx, "readback")()
	return w.st.readSegments(ctx, w.runID, refs)
}

func (st *Store) readSegments(ctx context.Context, runID string, refs []SegmentRef) ([]byte, error) {
	var out []byte
	for _, ref := range refs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(st.segPath(runID, ref.Hash))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, &CorruptRunError{RunID: runID, Artifact: ref.Hash,
					Reason: "segment file missing: " + err.Error()}
			}
			// A read failure that is not verified damage (fd exhaustion, a
			// momentary I/O error) must stay retryable: it is the caller's
			// 503, never grounds to quarantine an intact committed run.
			return nil, &StoreFaultError{Op: "segment read", Err: err}
		}
		raw, derr := decodeSegment(data)
		if derr != nil {
			return nil, &CorruptRunError{RunID: runID, Artifact: ref.Hash,
				Reason: derr.Error()}
		}
		if len(raw) != ref.Bytes {
			return nil, &CorruptRunError{RunID: runID, Artifact: ref.Hash,
				Reason: fmt.Sprintf("segment is %d bytes, manifest says %d (torn write)", len(raw), ref.Bytes)}
		}
		if h := hashBytes(raw); h != ref.Hash {
			return nil, &CorruptRunError{RunID: runID, Artifact: ref.Hash,
				Reason: "segment content hash mismatch"}
		}
		out = append(out, raw...)
	}
	return out, nil
}

// Commit seals the run: manifest written + fsync'd, its hash journaled,
// the journal closed. After Commit the run is immutable and servable.
func (w *RunWriter) Commit(ctx context.Context, stats TraceStats) (*Manifest, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	m := &Manifest{
		Version:         1,
		RunID:           w.runID,
		RunMeta:         w.meta,
		Segments:        append([]SegmentRef(nil), w.refs...),
		Frames:          w.frames,
		Bytes:           w.bytes,
		BodySHA256:      stats.BodySHA256,
		Transactions:    stats.Transactions,
		Unrecorded:      stats.Unrecorded,
		LossyPackets:    stats.LossyPackets,
		UploadGapFrames: w.gaps,
		Replayable:      stats.Replayable && w.gaps == 0,
	}
	// Stat (not recompute) the unique segment files for the on-disk total:
	// a resumed session's deduped segments were encoded by an earlier
	// writer, and what counts is what is actually on disk.
	seen := make(map[string]bool, len(w.refs))
	var storedBytes uint64
	for _, ref := range w.refs {
		if seen[ref.Hash] {
			continue
		}
		seen[ref.Hash] = true
		if fi, err := os.Stat(w.st.segPath(w.runID, ref.Hash)); err == nil {
			storedBytes += uint64(fi.Size())
		} else {
			storedBytes += uint64(ref.Bytes) // assume raw if unstattable
		}
	}
	m.StoredBytes = storedBytes
	if storedBytes > 0 {
		m.CompressionRatio = float64(w.bytes) / float64(storedBytes)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	path := filepath.Join(w.st.runDir(w.runID), "manifest.json")
	endManifest := stageTimer(ctx, "manifest")
	err = w.st.retr.do(ctx, "manifest write", func() error {
		if err := w.st.fault("manifest write"); err != nil {
			return err
		}
		return atomicWrite(path, data)
	})
	endManifest()
	if err != nil {
		return nil, err
	}
	if err := w.appendJournal(ctx, "commit", hashBytes(data)); err != nil {
		return nil, err
	}
	w.closed = true
	w.committed = true
	w.journal.Close()

	w.st.mu.Lock()
	rs := w.st.runs[w.runID]
	rs.manifest = m
	rs.partial = nil
	rs.writer = nil
	w.st.mu.Unlock()
	return m, nil
}

// Abort releases the writer without committing. Durable segments stay on
// disk; the run is resumable (recovery semantics) until committed.
func (w *RunWriter) Abort() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.journal.Close()
	durable := make(map[string]SegmentRef, len(w.durable))
	for h, r := range w.durable {
		durable[h] = r
	}
	w.mu.Unlock()

	w.st.mu.Lock()
	rs := w.st.runs[w.runID]
	if rs != nil && rs.manifest == nil {
		rs.partial = &partialRun{meta: w.meta, segs: durable}
		rs.writer = nil
	}
	w.st.mu.Unlock()
}

// ---- reading ----

// Manifest returns a committed, verified run's manifest.
func (st *Store) Manifest(runID string) (*Manifest, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rs := st.runs[runID]
	if rs == nil || rs.manifest == nil {
		return nil, false
	}
	return rs.manifest, true
}

// Runs lists committed run ids, sorted.
func (st *Store) Runs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	for id, rs := range st.runs {
		if rs.manifest != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ReadFrames returns a committed run's storage frames, fully re-verified:
// per-segment content hashes plus the manifest's end-to-end body hash
// after deframing happens in the caller. A failed check quarantines the
// run in memory so it is never served again, and returns a typed error
// wrapping trace.ErrCorrupt.
func (st *Store) ReadFrames(ctx context.Context, runID string) ([][trace.StoragePacketSize]byte, *Manifest, error) {
	m, ok := st.Manifest(runID)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown run %s", runID)
	}
	body, err := st.readSegments(ctx, runID, m.Segments)
	if err != nil {
		var ce *CorruptRunError
		if errors.As(err, &ce) {
			st.quarantineRun(runID, ce.Reason)
		}
		return nil, nil, err
	}
	frames, err := framesFromBytes(body)
	if err != nil {
		st.quarantineRun(runID, err.Error())
		return nil, nil, &CorruptRunError{RunID: runID, Artifact: "stream", Reason: err.Error()}
	}
	return frames, m, nil
}

// framesFromBytes reslices a raw byte stream into storage frames.
func framesFromBytes(b []byte) ([][trace.StoragePacketSize]byte, error) {
	if len(b)%trace.StoragePacketSize != 0 {
		return nil, fmt.Errorf("stream length %d is not a whole number of frames", len(b))
	}
	out := make([][trace.StoragePacketSize]byte, len(b)/trace.StoragePacketSize)
	for i := range out {
		copy(out[i][:], b[i*trace.StoragePacketSize:])
	}
	return out, nil
}

// framesToBytes flattens storage frames into the raw stream.
func framesToBytes(frames [][trace.StoragePacketSize]byte) []byte {
	out := make([]byte, 0, len(frames)*trace.StoragePacketSize)
	for i := range frames {
		out = append(out, frames[i][:]...)
	}
	return out
}

// quarantineRun moves a run's directory under <root>/.quarantine and marks
// it unusable in memory.
func (st *Store) quarantineRun(runID, reason string) {
	st.mu.Lock()
	rs := st.runs[runID]
	if rs == nil {
		rs = &runState{}
		st.runs[runID] = rs
	}
	rs.manifest = nil
	rs.partial = nil
	rs.gone = reason
	st.mu.Unlock()

	qdir := filepath.Join(st.root, ".quarantine")
	_ = os.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, runID)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", runID, i))
	}
	_ = os.Rename(st.runDir(runID), dst)
}

// ---- recovery ----

// recover scans every run directory, replays its journal and classifies
// the run. It returns an error only for store-level failures (unreadable
// root); per-run damage is quarantined and reported, never fatal.
func (st *Store) recover() (*Recovery, error) {
	rec := &Recovery{}
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		st.recoverRun(e.Name(), rec)
	}
	sort.Strings(rec.Intact)
	sort.Strings(rec.Resumable)
	return rec, nil
}

func (st *Store) recoverRun(runID string, rec *Recovery) {
	dir := st.runDir(runID)
	condemn := func(artifact, reason string) {
		rec.Quarantined = append(rec.Quarantined, Quarantine{RunID: runID, Artifact: artifact, Reason: reason})
		st.quarantineRun(runID, reason)
	}

	jdata, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil || len(jdata) == 0 {
		// A run directory without a journal recorded nothing durably —
		// nothing in it can be trusted.
		condemn("journal", "empty or missing journal")
		return
	}
	recs, torn, perr := parseJournal(jdata)
	if perr != nil {
		condemn("journal", perr.Error())
		return
	}
	if torn {
		rec.Quarantined = append(rec.Quarantined,
			Quarantine{RunID: runID, Artifact: "journal", Reason: "torn tail line dropped"})
	}
	if len(recs) == 0 {
		condemn("journal", "no intact journal records")
		return
	}
	// Repair the journal file to exactly its intact records before anything
	// appends to it again: a dropped torn tail (or a final line that lost
	// its newline) would otherwise concatenate with the next append and
	// condemn the whole journal on the following restart. An undamaged
	// journal round-trips byte for byte and is left untouched.
	rebuilt := make([]byte, 0, len(jdata))
	for _, r := range recs {
		rebuilt = append(rebuilt, journalLine(r.op, r.args...)...)
	}
	if !bytes.Equal(rebuilt, jdata) {
		if err := atomicWrite(filepath.Join(dir, "journal"), rebuilt); err != nil {
			condemn("journal", "journal repair failed: "+err.Error())
			return
		}
	}

	var meta RunMeta
	puts := map[string]SegmentRef{} // put journaled, awaiting done
	done := map[string]SegmentRef{} // durable per journal
	committed := ""
	for _, r := range recs {
		switch r.op {
		case "open":
			if len(r.args) >= 4 {
				scale, _ := strconv.Atoi(r.args[2])
				seed, _ := strconv.ParseInt(r.args[3], 10, 64)
				meta = RunMeta{Tenant: r.args[0], App: r.args[1], Scale: scale, Seed: seed}
			}
		case "put":
			if len(r.args) >= 4 {
				nbytes, _ := strconv.Atoi(r.args[1])
				nframes, _ := strconv.Atoi(r.args[2])
				seq, _ := strconv.ParseUint(r.args[3], 10, 32)
				puts[r.args[0]] = SegmentRef{Hash: r.args[0], Bytes: nbytes, Frames: nframes, FirstSeq: uint32(seq)}
			}
		case "done":
			if len(r.args) >= 1 {
				if ref, ok := puts[r.args[0]]; ok {
					done[r.args[0]] = ref
				}
			}
		case "gap":
			// accounted by the manifest at commit; nothing to rebuild
		case "commit":
			if len(r.args) >= 1 {
				committed = r.args[0]
			}
		}
	}

	// Sweep temp leftovers (a crash between write and rename) into the
	// run's quarantine directory.
	st.sweepTemps(runID, rec)

	if committed != "" {
		st.recoverCommitted(runID, committed, rec, condemn)
		return
	}

	// Uncommitted: verify each journal-durable segment on disk; torn or
	// damaged ones are quarantined, intact ones seed the resume set.
	verified := map[string]SegmentRef{}
	for h, ref := range done {
		if reason := st.verifySegment(runID, ref); reason != "" {
			st.quarantineArtifact(runID, h, reason, rec)
			continue
		}
		verified[h] = ref
	}
	// A put without a done is a torn write by construction.
	for h := range puts {
		if _, ok := done[h]; ok {
			continue
		}
		if _, err := os.Stat(st.segPath(runID, h)); err == nil {
			st.quarantineArtifact(runID, h, "put without done (torn write)", rec)
		}
	}
	st.mu.Lock()
	st.runs[runID] = &runState{partial: &partialRun{meta: meta, segs: verified}}
	st.mu.Unlock()
	rec.Resumable = append(rec.Resumable, runID)
}

// recoverCommitted verifies a committed run end to end: manifest bytes
// against the journaled hash, manifest JSON, then every segment.
func (st *Store) recoverCommitted(runID, wantHash string, rec *Recovery, condemn func(artifact, reason string)) {
	data, err := os.ReadFile(filepath.Join(st.runDir(runID), "manifest.json"))
	if err != nil {
		condemn("manifest", "committed but manifest unreadable: "+err.Error())
		return
	}
	if h := hashBytes(data); h != wantHash {
		condemn("manifest", "manifest hash does not match journal commit record")
		return
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		condemn("manifest", "manifest does not parse: "+err.Error())
		return
	}
	for _, ref := range m.Segments {
		if reason := st.verifySegment(runID, ref); reason != "" {
			condemn(ref.Hash, reason)
			return
		}
	}
	st.mu.Lock()
	st.runs[runID] = &runState{manifest: &m}
	st.mu.Unlock()
	rec.Intact = append(rec.Intact, runID)
}

// verifySegment re-hashes one segment file; "" means intact. Stored bytes
// are decoded through the storage codec first, so a truncated flate
// stream surfaces as damage just like a torn raw write.
func (st *Store) verifySegment(runID string, ref SegmentRef) string {
	data, err := os.ReadFile(st.segPath(runID, ref.Hash))
	if err != nil {
		return "segment unreadable: " + err.Error()
	}
	raw, derr := decodeSegment(data)
	if derr != nil {
		return derr.Error()
	}
	if len(raw) != ref.Bytes {
		return fmt.Sprintf("segment is %d bytes, journal says %d (torn write)", len(raw), ref.Bytes)
	}
	if len(raw)%trace.StoragePacketSize != 0 {
		return fmt.Sprintf("segment length %d is not a whole number of frames (torn final frame)", len(raw))
	}
	if hashBytes(raw) != ref.Hash {
		return "segment content hash mismatch"
	}
	return ""
}

// quarantineArtifact moves one damaged file into <run>/quarantine/.
func (st *Store) quarantineArtifact(runID, hash, reason string, rec *Recovery) {
	rec.Quarantined = append(rec.Quarantined, Quarantine{RunID: runID, Artifact: hash, Reason: reason})
	qdir := filepath.Join(st.runDir(runID), "quarantine")
	_ = os.MkdirAll(qdir, 0o755)
	_ = os.Rename(st.segPath(runID, hash), filepath.Join(qdir, hash+".seg"))
}

// sweepTemps quarantines atomic-write temp leftovers.
func (st *Store) sweepTemps(runID string, rec *Recovery) {
	segRoot := filepath.Join(st.runDir(runID), "segs")
	_ = filepath.WalkDir(segRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".tmp") {
			return nil
		}
		rec.Quarantined = append(rec.Quarantined, Quarantine{
			RunID: runID, Artifact: filepath.Base(path), Reason: "temp file leftover (crash mid-write)"})
		qdir := filepath.Join(st.runDir(runID), "quarantine")
		_ = os.MkdirAll(qdir, 0o755)
		_ = os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
		return nil
	})
}

// deriveSessionSeed mixes a label into the store jitter seed the way
// fault.Plan.Derive does (fnv-64a), for per-session deterministic streams.
func deriveSessionSeed(base int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return base ^ int64(h.Sum64())
}

// atomicWrite writes data durably: temp file in the target directory,
// write + fsync, rename over the target, fsync the directory.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
