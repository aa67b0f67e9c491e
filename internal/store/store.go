// Package store is the durable, resumable result store of the campaign
// service: an append-only write-ahead log of per-injection outcomes keyed
// by (campaign ID, benchmark, plan index), CRC-checksummed per record,
// split into rotating segments, with a compact snapshot of the folded
// Tally state taken at each rotation so recovery replays only the WAL
// tail. Opening an existing directory resumes it crash-safely: every
// intact record is recovered, corrupt or truncated records are counted and
// dropped (never fatal), and duplicate records — the normal byproduct of a
// reassigned shard re-executing runs — fold only once.
//
// Store implements inject.ResultSink, so inject.ResumeCampaign and the
// distributed coordinator in internal/server persist through the same
// interface, and Result() assembles aggregates bit-identical to a
// single-process inject.RunCampaign of the same campaign.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"xentry/internal/inject"
	"xentry/internal/wire"
)

// Meta pins the identity of the campaign a store directory belongs to.
// Resuming with mismatching identity fields is an error: outcomes from a
// different seed schedule must never be folded together.
type Meta struct {
	CampaignID string   `json:"campaign_id"`
	Benchmarks []string `json:"benchmarks"`
	// Injections is the per-benchmark plan count (plan indices are
	// [0, Injections) per benchmark).
	Injections  int   `json:"injections_per_benchmark"`
	Activations int   `json:"activations"`
	Seed        int64 `json:"seed"`
	// Extra is an opaque caller blob (the server stores its campaign spec
	// here so a restarted coordinator can rebuild the run).
	Extra json.RawMessage `json:"extra,omitempty"`
	// ModelSHA256 is the hex SHA-256 of the canonical encoding of the
	// transition model the stored outcomes were executed with; empty
	// means no model, or a store written before models were pinned (see
	// PinModel).
	ModelSHA256 string `json:"model_sha256,omitempty"`
	// Build describes the binary that created the store. It is
	// informational only: it is never compared on resume.
	Build string `json:"build,omitempty"`
}

// ErrModelMismatch reports a run whose transition model differs from the
// one the store's outcomes were executed with. Folding the two would mix
// classifications from different models, so the run must not start.
var ErrModelMismatch = errors.New("store: transition model differs from the one pinned in meta")

// Options tune the store.
type Options struct {
	// MaxSegmentBytes rotates the active WAL segment (and snapshots the
	// folded state) once it grows past this size. 0 means 1 MiB.
	MaxSegmentBytes int64
	// ReadOnly opens the store for folding only: no segment is created and
	// Record fails. Used to render figures from a finished campaign.
	ReadOnly bool
	// SyncEveryBytes fsyncs the active segment once at least this many
	// bytes have been appended since the last sync — the group-commit knob
	// for the batched ingest path, bounding how much acknowledged data a
	// host crash can lose without paying an fsync per record or per batch.
	// 0 keeps the historical behaviour: sync only at rotation and Close.
	SyncEveryBytes int64
}

const (
	frameHeader = 8 // uint32 length + uint32 CRC32 (IEEE), little-endian
	// maxRecordBytes bounds a frame's claimed length; anything larger means
	// the framing itself is corrupt and the rest of the segment is
	// unrecoverable.
	maxRecordBytes = 1 << 24
)

// walRecord is the JSON payload of one WAL frame.
type walRecord struct {
	Bench   string         `json:"b"`
	Index   int            `json:"i"`
	Outcome inject.Outcome `json:"o"`
}

// snapshot is the JSON payload of the snapshot file: the folded tallies
// plus the per-benchmark bitmap of stored indices and the first WAL
// segment not covered, so Resume replays only the tail.
type snapshot struct {
	CoveredSegments int                      `json:"covered_segments"`
	Dropped         int                      `json:"dropped"`
	Counts          map[string]int           `json:"counts"`
	Have            map[string][]uint64      `json:"have"`
	Tallies         map[string]*inject.Tally `json:"tallies"`
}

// Store implements inject.ResultSink.
var _ inject.ResultSink = (*Store)(nil)

// Store is a durable campaign result store rooted at one directory. All
// methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	meta Meta

	mu      sync.Mutex
	tallies map[string]*inject.Tally
	have    map[string][]uint64
	counts  map[string]int
	dropped int
	closed  bool

	seg      *os.File
	segIndex int
	segBytes int64
	unsynced int64

	// batchBuf and freshIdx are AppendBatch's reusable scratch; wdec is
	// the lazily built binary-record decoder shared by replay and batch
	// appends (both run under mu).
	batchBuf []byte
	freshIdx []int
	wdec     *wire.Decoder
}

// Open creates a store in dir, or resumes the one already there. For a new
// store, meta must carry the campaign identity; for an existing one, any
// identity fields set in meta are checked against the stored ones and a
// mismatch is an error. Resume is crash-safe: the newest valid snapshot is
// loaded, only WAL segments past it are replayed, corrupt or truncated
// records are dropped and counted (see Dropped), and appends continue into
// a fresh segment so a torn tail is never appended to.
func Open(dir string, meta Meta, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		tallies: map[string]*inject.Tally{},
		have:    map[string][]uint64{},
		counts:  map[string]int{},
	}
	stored, err := ReadMeta(dir)
	switch {
	case err == nil:
		if err := checkMeta(stored, meta); err != nil {
			return nil, err
		}
		s.meta = stored
	case errors.Is(err, os.ErrNotExist):
		if opts.ReadOnly {
			return nil, fmt.Errorf("store: %s: no store to open read-only", dir)
		}
		if len(meta.Benchmarks) == 0 || meta.Injections <= 0 {
			return nil, fmt.Errorf("store: new store needs benchmarks and an injection count")
		}
		s.meta = meta
		if err := writeFileAtomic(filepath.Join(dir, "meta.json"), mustJSON(meta)); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if err := s.resume(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadMeta reads the meta.json of the store in dir without opening it.
// A directory with no store fails with an error wrapping os.ErrNotExist.
func ReadMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("store: meta.json: %w", err)
	}
	return m, nil
}

// checkMeta verifies every identity field the caller set against the
// stored identity (Extra and Build are the caller's business).
func checkMeta(stored, want Meta) error {
	if want.ModelSHA256 != "" {
		if err := checkModel(stored.ModelSHA256, want.ModelSHA256); err != nil {
			return err
		}
	}
	if want.CampaignID != "" && want.CampaignID != stored.CampaignID {
		return fmt.Errorf("store: holds campaign %q, not %q", stored.CampaignID, want.CampaignID)
	}
	if want.Seed != 0 && want.Seed != stored.Seed {
		return fmt.Errorf("store: holds seed %d, not %d", stored.Seed, want.Seed)
	}
	if want.Injections != 0 && want.Injections != stored.Injections {
		return fmt.Errorf("store: holds %d injections/benchmark, not %d", stored.Injections, want.Injections)
	}
	if want.Activations != 0 && want.Activations != stored.Activations {
		return fmt.Errorf("store: holds %d activations, not %d", stored.Activations, want.Activations)
	}
	if len(want.Benchmarks) != 0 && !equalStrings(want.Benchmarks, stored.Benchmarks) {
		return fmt.Errorf("store: holds benchmarks %v, not %v", stored.Benchmarks, want.Benchmarks)
	}
	return nil
}

// checkModel compares a model hash against a pinned one; an unpinned
// store accepts any.
func checkModel(pinned, want string) error {
	if pinned != "" && want != pinned {
		if want == "" {
			want = "none"
		}
		return fmt.Errorf("%w: pinned %s, run has %s", ErrModelMismatch, pinned, want)
	}
	return nil
}

// PinModel binds the store to a transition model, given as the hex
// SHA-256 of its canonical encoding ("" for a campaign without one). A
// store that already pins a hash fails with ErrModelMismatch for any
// other; an unpinned one — new, or written before models were pinned —
// records the hash in meta.json. A campaign pins before it executes
// anything, so a mismatch never appends an outcome.
func (s *Store) PinModel(sha string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkModel(s.meta.ModelSHA256, sha); err != nil {
		return err
	}
	if s.meta.ModelSHA256 == sha || s.opts.ReadOnly {
		return nil
	}
	m := s.meta
	m.ModelSHA256 = sha
	if err := writeFileAtomic(filepath.Join(s.dir, "meta.json"), mustJSON(m)); err != nil {
		return err
	}
	s.meta = m
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resume loads the snapshot (if any), replays the WAL tail, and positions
// the store for appending.
func (s *Store) resume() error {
	from := 0
	if snap, ok := s.loadSnapshot(); ok {
		from = snap.CoveredSegments
		s.dropped = snap.Dropped
		s.counts = snap.Counts
		s.have = snap.Have
		s.tallies = snap.Tallies
		for _, t := range s.tallies {
			// A tally decoded from JSON may have nil maps for empty fields;
			// Merge/Add need them initialised, which Merge into a fresh
			// tally guarantees.
			fresh := inject.NewTally()
			fresh.Merge(t)
			*t = *fresh
		}
		if s.counts == nil {
			s.counts = map[string]int{}
		}
		if s.have == nil {
			s.have = map[string][]uint64{}
		}
		if s.tallies == nil {
			s.tallies = map[string]*inject.Tally{}
		}
	}
	segs, err := s.segments()
	if err != nil {
		return err
	}
	maxSeg := -1
	for _, seg := range segs {
		if seg > maxSeg {
			maxSeg = seg
		}
		if seg < from {
			continue
		}
		if err := s.replaySegment(seg); err != nil {
			return err
		}
	}
	if s.opts.ReadOnly {
		return nil
	}
	// Never append to a possibly-torn tail: start a fresh segment.
	s.segIndex = maxSeg + 1
	return s.openSegment()
}

// segments lists the existing WAL segment indices in ascending order.
func (s *Store) segments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%06d.log", n))
}

func (s *Store) openSegment() error {
	f, err := os.OpenFile(s.segPath(s.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg, s.segBytes = f, 0
	return nil
}

// replaySegment folds every intact record of one segment, skipping
// duplicates and counting drops. A bad CRC with intact framing skips just
// that record; a truncated tail or corrupt length field ends the segment
// (framing is gone, nothing past it can be trusted).
func (s *Store) replaySegment(n int) error {
	data, err := os.ReadFile(s.segPath(n))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for off := 0; off < len(data); {
		if len(data)-off < frameHeader {
			s.dropped++ // torn header at the tail
			break
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxRecordBytes {
			s.dropped++ // framing corrupt; cannot resync
			break
		}
		end := off + frameHeader + int(length)
		if end > len(data) {
			s.dropped++ // truncated tail record
			break
		}
		payload := data[off+frameHeader : end]
		off = end
		if crc32.ChecksumIEEE(payload) != sum {
			s.dropped++ // payload corrupt, framing intact: skip one record
			continue
		}
		bench, index, o, err := s.decodeRecord(payload)
		if err != nil {
			s.dropped++
			continue
		}
		if index < 0 || (s.meta.Injections > 0 && index >= s.meta.Injections) {
			// An index outside the campaign's plan range is damage even when
			// the CRC holds (and folding it would grow the dedup bitmap to
			// the claimed index).
			s.dropped++
			continue
		}
		s.fold(bench, index, o)
	}
	return nil
}

// decodeRecord decodes one intact record payload. Segments mix two
// encodings — the historical JSON records (payloads start with '{') and
// the fleet's binary records (wire.RecFormat leading byte, appended
// verbatim from worker batches) — distinguished by a one-byte sniff.
func (s *Store) decodeRecord(payload []byte) (bench string, index int, o inject.Outcome, err error) {
	if len(payload) > 0 && payload[0] == wire.RecFormat {
		if s.wdec == nil {
			s.wdec = wire.NewDecoder()
		}
		return s.wdec.DecodeRecord(payload)
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return "", 0, inject.Outcome{}, err
	}
	return rec.Bench, rec.Index, rec.Outcome, nil
}

// fold merges one outcome into the in-memory state, deduplicating by
// (benchmark, index). It reports whether the outcome was new.
func (s *Store) fold(bench string, index int, o inject.Outcome) bool {
	if !s.markLocked(bench, index) {
		return false
	}
	s.tallyLocked(bench, o)
	return true
}

// markLocked claims (bench, index) in the dedup bitmap, reporting whether
// it was fresh. AppendBatch claims entries before the group write and
// tallies them after it succeeds, so a failed write can roll the claims
// back (unmarkLocked) without having touched the tallies.
func (s *Store) markLocked(bench string, index int) bool {
	if index < 0 {
		return false
	}
	bits := s.have[bench]
	if need := index/64 + 1; len(bits) < need {
		grown := make([]uint64, need)
		copy(grown, bits)
		bits = grown
	}
	if bits[index/64]&(1<<(index%64)) != 0 {
		return false
	}
	bits[index/64] |= 1 << (index % 64)
	s.have[bench] = bits
	return true
}

func (s *Store) unmarkLocked(bench string, index int) {
	if bits := s.have[bench]; index >= 0 && index/64 < len(bits) {
		bits[index/64] &^= 1 << (index % 64)
	}
}

// tallyLocked folds a freshly marked outcome into the counts and tallies.
func (s *Store) tallyLocked(bench string, o inject.Outcome) {
	s.counts[bench]++
	t := s.tallies[bench]
	if t == nil {
		t = inject.NewTally()
		s.tallies[bench] = t
	}
	t.Add(o)
}

// Has reports whether an outcome for (bench, index) is stored. It is part
// of inject.ResultSink: ResumeCampaign skips these indices.
func (s *Store) Has(bench string, index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bits := s.have[bench]
	return index >= 0 && index/64 < len(bits) && bits[index/64]&(1<<(index%64)) != 0
}

// Record appends one outcome to the WAL and folds it. Duplicate indices
// are ignored (first record wins — outcomes are deterministic, so any
// duplicate from a reassigned shard carries identical bits anyway).
func (s *Store) Record(bench string, index int, o inject.Outcome) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.opts.ReadOnly {
		return fmt.Errorf("store: read-only")
	}
	bits := s.have[bench]
	if index >= 0 && index/64 < len(bits) && bits[index/64]&(1<<(index%64)) != 0 {
		return nil
	}
	payload, err := json.Marshal(walRecord{Bench: bench, Index: index, Outcome: o})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := s.seg.Write(append(hdr[:], payload...)); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.segBytes += int64(frameHeader + len(payload))
	s.unsynced += int64(frameHeader + len(payload))
	s.fold(bench, index, o)
	return s.commitLocked()
}

// commitLocked finishes an append: rotate past full segments, group-sync
// past the unsynced-bytes threshold.
func (s *Store) commitLocked() error {
	if s.segBytes >= s.opts.MaxSegmentBytes {
		return s.rotateLocked()
	}
	if s.opts.SyncEveryBytes > 0 && s.unsynced >= s.opts.SyncEveryBytes {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.unsynced = 0
	}
	return nil
}

// BatchEntry is one record of an AppendBatch call.
type BatchEntry struct {
	Bench   string
	Index   int
	Outcome inject.Outcome
	// Frame optionally carries the record already framed in the binary
	// wire encoding (wire.AppendRecordFrame). It MUST encode exactly
	// (Bench, Index, Outcome) with a valid CRC — the fleet ingest path
	// satisfies this by construction, having decoded Outcome from the
	// frame after verifying it — and is appended to the WAL verbatim, so
	// the hot path never re-encodes. A nil Frame falls back to the JSON
	// encoding Record uses.
	Frame []byte
	// Fresh is an out-field: AppendBatch sets it to whether this entry was
	// newly folded (not a duplicate of the store or of an earlier entry in
	// the batch). Callers use it to emit per-outcome events for exactly the
	// records that counted.
	Fresh bool
}

// AppendBatch group-commits a batch of records: one lock acquisition, one
// dedup pass, one contiguous segment write, one rotation/sync decision.
// Duplicates — against the store and within the batch — are skipped
// exactly as Record skips them. It returns how many entries were fresh.
// Replaying a WAL written by AppendBatch is indistinguishable from one
// written record-by-record: the bytes are the same frames in the same
// order.
func (s *Store) AppendBatch(entries []BatchEntry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	if s.opts.ReadOnly {
		return 0, fmt.Errorf("store: read-only")
	}
	buf := s.batchBuf[:0]
	fresh := s.freshIdx[:0]
	for i := range entries {
		e := &entries[i]
		e.Fresh = false
		if !s.markLocked(e.Bench, e.Index) {
			continue
		}
		e.Fresh = true
		fresh = append(fresh, i)
		if e.Frame != nil {
			buf = append(buf, e.Frame...)
			continue
		}
		payload, err := json.Marshal(walRecord{Bench: e.Bench, Index: e.Index, Outcome: e.Outcome})
		if err != nil {
			for _, j := range fresh {
				s.unmarkLocked(entries[j].Bench, entries[j].Index)
				entries[j].Fresh = false
			}
			return 0, fmt.Errorf("store: %w", err)
		}
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		buf = append(append(buf, hdr[:]...), payload...)
	}
	s.batchBuf, s.freshIdx = buf, fresh[:0]
	if len(fresh) == 0 {
		return 0, nil
	}
	if _, err := s.seg.Write(buf); err != nil {
		// The claims roll back so the batch can be retried; the segment
		// tail may hold a torn prefix of the batch, which replay drops.
		for _, j := range fresh {
			s.unmarkLocked(entries[j].Bench, entries[j].Index)
			entries[j].Fresh = false
		}
		return 0, fmt.Errorf("store: append: %w", err)
	}
	s.segBytes += int64(len(buf))
	s.unsynced += int64(len(buf))
	for _, j := range fresh {
		s.tallyLocked(entries[j].Bench, entries[j].Outcome)
	}
	return len(fresh), s.commitLocked()
}

// rotateLocked seals the active segment, snapshots the folded state
// covering every sealed segment, and opens the next segment.
func (s *Store) rotateLocked() error {
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.unsynced = 0
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segIndex++
	if err := s.writeSnapshotLocked(); err != nil {
		return err
	}
	return s.openSegment()
}

// Snapshot forces a snapshot of the folded state covering every sealed
// segment plus the active one, which is sealed first. Open folds the
// snapshot and replays only segments after it.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.ReadOnly {
		return fmt.Errorf("store: snapshot needs an open writable store")
	}
	return s.rotateLocked()
}

// writeSnapshotLocked persists the folded state as one CRC-framed JSON
// blob covering segments [0, s.segIndex).
func (s *Store) writeSnapshotLocked() error {
	payload := mustJSON(snapshot{
		CoveredSegments: s.segIndex,
		Dropped:         s.dropped,
		Counts:          s.counts,
		Have:            s.have,
		Tallies:         s.tallies,
	})
	buf := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return writeFileAtomic(filepath.Join(s.dir, "snap.bin"), append(buf, payload...))
}

// loadSnapshot reads and validates the snapshot file. Any damage —
// missing, torn, bad CRC — just means "no snapshot": resume falls back to
// replaying every segment, which is always safe because segments are never
// deleted.
func (s *Store) loadSnapshot() (snapshot, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, "snap.bin"))
	if err != nil || len(data) < frameHeader {
		return snapshot{}, false
	}
	length := binary.LittleEndian.Uint32(data[0:])
	sum := binary.LittleEndian.Uint32(data[4:])
	if int(length) != len(data)-frameHeader {
		return snapshot{}, false
	}
	payload := data[frameHeader:]
	if crc32.ChecksumIEEE(payload) != sum {
		return snapshot{}, false
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return snapshot{}, false
	}
	return snap, true
}

// Result assembles the normalized campaign aggregates from everything
// stored: per-benchmark tallies cloned from the folded state and a total
// merged across the campaign's benchmark order. For a complete store the
// result is bit-identical to single-process inject.RunCampaign with the
// same config.
func (s *Store) Result() (*inject.CampaignResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &inject.CampaignResult{
		PerBenchmark: map[string]*inject.Tally{},
		Total:        inject.NewTally(),
	}
	for _, bench := range s.meta.Benchmarks {
		t := s.tallies[bench]
		if t == nil {
			t = inject.NewTally()
		} else {
			t = t.Clone()
		}
		res.PerBenchmark[bench] = t
		res.Total.Merge(t)
	}
	res.Normalize()
	return res, nil
}

// Meta returns the campaign identity the store was created with, plus
// the model hash pinned since.
func (s *Store) Meta() Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// Count returns how many outcomes are stored for one benchmark.
func (s *Store) Count(bench string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[bench]
}

// TotalCount returns how many outcomes are stored across all benchmarks.
func (s *Store) TotalCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Complete reports whether every plan index of every benchmark is stored.
func (s *Store) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, bench := range s.meta.Benchmarks {
		if s.counts[bench] < s.meta.Injections {
			return false
		}
	}
	return true
}

// Dropped returns how many corrupt or truncated WAL records have been
// dropped across all resumes of this directory.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close seals the store. The active segment is synced; a reopened store
// resumes from the snapshot plus the WAL tail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg == nil {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg = nil
	return nil
}

// writeFileAtomic writes data via a temp file + rename so readers never
// observe a half-written file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Everything serialized here is plain structs of ints, strings,
		// slices, and integer-keyed maps; failure is a programming error.
		panic(err)
	}
	return data
}
