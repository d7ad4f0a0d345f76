// Package journal makes long Spawn & Merge runs crash-recoverable. The
// paper's determinism guarantee means a run is fully described by its
// inputs plus the script of its sanctioned non-deterministic choices (the
// MergeAny/MergeAnyFromSet picks): replaying that script over the same
// inputs reproduces the identical state, bit for bit. The journal turns
// that replay property into a recovery mechanism:
//
//   - a write-ahead log durably records the run's initial snapshots, then
//     every committed pick (the journal is its run's task.Decider, whose
//     Picked appends before the corresponding merge applies) and every
//     dist coordinator routing decision, each record length-prefixed and
//     CRC32-framed;
//   - periodic checkpoints — post-merge snapshots of the root structures
//     plus their fingerprint — are written atomically (tmp file, fsync,
//     rename, directory fsync) every N root merges;
//   - recovery truncates the WAL's torn tail, validates every CRC, loads
//     the latest intact checkpoint, and resumes by re-running the program
//     with the durable picks forced (the journal's Pick). The resumed
//     run re-traces the crashed one exactly — every prior checkpoint it
//     passes is fingerprint-verified — and keeps journaling fresh picks
//     from where the crash cut off, so a resumed run can itself crash and
//     be resumed again.
//
// Structures cross the disk boundary with the same codecs the dist layer
// uses for the wire; callers inject them via Options (the repro facade
// wires dist's registry in automatically).
package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/task"
)

// Options configures a journal.
type Options struct {
	// Encode serializes one structure, returning the codec name to store
	// alongside the bytes; Decode rebuilds it. Both are required — the
	// dist codec registry (dist.EncodeSnapshot / dist.DecodeSnapshot)
	// satisfies them, and the repro facade injects exactly that.
	Encode func(m mergeable.Mergeable) (codec string, data []byte, err error)
	Decode func(codec string, data []byte) (mergeable.Mergeable, error)

	// CheckpointEvery takes a checkpoint every N root merges. Zero means
	// the default (4); negative disables checkpoints.
	CheckpointEvery int

	// SegmentBytes, when positive, bounds the WAL on disk: whenever the
	// live segment grows past this many bytes the journal rotates to a
	// fresh segment whose first record is a snapshot anchor carrying the
	// full durable prefix (inputs, picks, routes, membership), then
	// deletes the superseded segments. Zero — the default — keeps the
	// historical single-file wal.log. Recovery semantics are unchanged
	// either way: kill the process at any byte and Open/Resume still
	// reproduce the run.
	SegmentBytes int64

	// RetainCheckpoints, when positive, prunes checkpoint files after each
	// new one lands, keeping only the newest N on disk (counted as
	// "compaction.ckpt.pruned"). Checkpoints are verification anchors, not
	// recovery state, so pruning only thins the anchors a resume verifies
	// against. Zero — the default — keeps every checkpoint.
	RetainCheckpoints int

	// Stats, when non-nil, receives the journal's counters instead of an
	// internal set: "record_written", "bytes_written", "pick_recorded",
	// "pick_replayed", "checkpoint_written", "checkpoint_verified",
	// "route_recorded", "route_replayed", "member_recorded",
	// "member_replayed", "torn_tail_truncated",
	// "torn_bytes", "resume", "done_verified", "tmp_removed",
	// "checkpoint_damaged", plus the compaction family when SegmentBytes
	// is set: "compaction.wal.rotations",
	// "compaction.wal.segments_deleted", "compaction.wal.bytes_reclaimed",
	// "compaction.wal.stale_segments_removed",
	// "compaction.wal.torn_segment_dropped".
	Stats *stats.Counters

	// WrapWriter, when non-nil, intercepts every physical writer the
	// journal opens (the WAL and each checkpoint tmp file). Crash
	// harnesses pass (*CrashWriter).Wrap; production passes nothing.
	WrapWriter func(io.Writer) io.Writer

	// Obs, when non-nil, receives WAL spans (wal.append, checkpoint,
	// replay) and is also handed to the task runtime, so a journaled run
	// gets the full span tree. Nil — the default — costs nothing.
	Obs *obs.Tracer

	// Decider, when non-nil, decides fresh MergeAny picks — ones the
	// journal's durable picks do not cover — so the schedule explorer can
	// pin a journaled run to an exact schedule. Journaled picks always
	// take precedence on Resume. It observes every committed pick and
	// yields at every blocking point of the merge protocol, as the run's
	// own decider would.
	Decider task.Decider

	// History tunes the task runtime's op-log garbage collector for the
	// journaled run (see task.HistoryGC). The zero value trims eagerly —
	// the runtime default. The soak harness's unbounded reference runs set
	// Disable; compaction never changes a result, so the fingerprint a
	// journal seals is identical either way.
	History task.HistoryGC

	// OnOpen, when non-nil, is invoked with the live journal just before
	// the run's root task starts — after Create initialized it (Run) or
	// Open recovered it (Resume). Callers use it to hand the journal to
	// collaborators that must write through the same WAL, e.g. a dist
	// cluster's Options.Journal, so coordinator state (routes, membership
	// epochs) and merge picks land in one crash-consistent log.
	OnOpen func(*Journal)
}

func (o Options) normalized() (Options, error) {
	if o.Encode == nil || o.Decode == nil {
		return o, errors.New("journal: Options.Encode and Options.Decode are required")
	}
	switch {
	case o.CheckpointEvery == 0:
		o.CheckpointEvery = 4
	case o.CheckpointEvery < 0:
		o.CheckpointEvery = 0 // disabled
	}
	if o.Stats == nil {
		o.Stats = stats.NewCounters()
	}
	return o, nil
}

// Recovery is what Open salvaged from a journal directory.
type Recovery struct {
	// Snaps are the run's initial snapshots; Picks the durable merge
	// picks per parent path; Routes the last recorded dist routing
	// decision per spawn slot.
	Snaps  []NamedSnapshot
	Picks  map[string][]uint64
	Routes map[string]int
	// Members is the durable membership transition sequence, ascending by
	// epoch — the part of the coordinator's state that, together with
	// Routes, lets a restarted coordinator re-drive its placement.
	Members []MemberRec
	// Checkpoints are the intact checkpoints, ascending by index; Latest
	// is the highest index (0 when none).
	Checkpoints []Checkpoint
	Latest      int
	// TornTail reports that an incomplete final WAL record was truncated.
	TornTail bool
	// Done reports the journaled run completed; Fingerprint is its final
	// combined fingerprint.
	Done        bool
	Fingerprint uint64
}

// Journal is an open journal: a WAL accepting appends plus the state
// recovered from it. Safe for concurrent use — picks and routes arrive
// from the merge paths of many tasks at once.
type Journal struct {
	dir      string
	opts     Options
	counters *stats.Counters

	mu  sync.Mutex
	wal *os.File
	w   io.Writer // wal behind WrapWriter
	// Segment rotation state: seg is the live segment's number (0 = the
	// plain wal.log), segBytes its on-disk size, and snaps/picks the
	// accumulated anchor state a rotation snapshots — the run's initial
	// snapshots and every durable pick per path. snaps doubles as the
	// rotation gate: until the inputs record is durable there is nothing
	// an anchor could carry, so rotation stays off. cursor counts the
	// picks this run committed per path: below len(picks[path]) a resumed
	// run is still re-tracing durable picks.
	seg      int
	segBytes int64
	snaps    []NamedSnapshot
	picks    map[string][]uint64
	cursor   map[string]int
	// dead is the first write failure; once set, the journal drops every
	// later append. The in-memory run continues (the process "died" only
	// as far as durability is concerned — exactly a crash simulation) and
	// the error surfaces when the run finishes.
	dead error
	// diverged is the first resume divergence (see ErrDiverged).
	diverged error

	// Recovered state driving a resume.
	rec     *Recovery
	routes  map[string]int       // slot -> last recorded node (recovered + live)
	members map[uint64]MemberRec // epoch -> transition (recovered + live)
	ckpts   map[int]uint64       // intact prior checkpoints, for verification
}

// MemberRec is one durable cluster membership transition (see the dist
// package's MembershipJournal). Kind is dist's MemberEventKind as a raw
// byte; the journal only promises the epoch sequence replays verbatim.
type MemberRec struct {
	Epoch uint64
	Kind  uint8
	Node  int
}

// Stats returns the journal's counters.
func (j *Journal) Stats() *stats.Counters { return j.counters }

// Recovery returns what Open recovered (nil on a journal built by Create).
func (j *Journal) Recovery() *Recovery { return j.rec }

// Err returns the journal's sticky failure: the first write error (e.g.
// an injected crash) or the first detected resume divergence.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return errors.Join(j.dead, j.diverged)
}

func (j *Journal) wrapWriter(w io.Writer) io.Writer {
	if j.opts.WrapWriter != nil {
		return j.opts.WrapWriter(w)
	}
	return w
}

// countWrite writes b fully through w, accounting the bytes that landed.
func (j *Journal) countWrite(w io.Writer, b []byte) error {
	n, err := w.Write(b)
	j.counters.Add("bytes_written", int64(n))
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// Create initializes a fresh journal in dir (created if missing). It
// refuses a directory that already holds a WAL — recover that with Open
// instead of silently overwriting a run's history.
func Create(dir string, opts Options) (*Journal, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	if segs, err := listSegments(dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("journal: %s already holds a run; use Open/Resume", dir)
	}
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create wal: %w", err)
	}
	j := &Journal{
		dir:      dir,
		opts:     opts,
		counters: opts.Stats,
		wal:      f,
		segBytes: int64(len(walMagic)),
		picks:    make(map[string][]uint64),
		cursor:   make(map[string]int),
		routes:   make(map[string]int),
		members:  make(map[uint64]MemberRec),
		ckpts:    make(map[int]uint64),
	}
	j.w = j.wrapWriter(f)
	if err := j.countWrite(j.w, walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write magic: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync wal: %w", err)
	}
	syncDir(dir)
	return j, nil
}

// Open recovers the journal in dir and reopens it for appending: the
// newest recoverable WAL segment is selected (a torn mid-rotation
// artifact is deleted, stale superseded segments are removed), the
// segment's torn tail (if any) is physically truncated, every surviving
// record is CRC-validated and decoded, stray checkpoint tmp files are
// removed and damaged checkpoints discarded, and the latest intact
// checkpoint is cross-checked against the WAL (its script must be a
// prefix of the durable picks). See Recovery for what comes back.
func Open(dir string, opts Options) (*Journal, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:      dir,
		opts:     opts,
		counters: opts.Stats,
		picks:    make(map[string][]uint64),
		cursor:   make(map[string]int),
		routes:   make(map[string]int),
		members:  make(map[uint64]MemberRec),
		ckpts:    make(map[int]uint64),
	}
	if err := j.recoverDir(); err != nil {
		if j.wal != nil {
			j.wal.Close()
		}
		return nil, err
	}
	if _, err := j.wal.Seek(0, io.SeekEnd); err != nil {
		j.wal.Close()
		return nil, fmt.Errorf("journal: seek wal: %w", err)
	}
	j.w = j.wrapWriter(j.wal)
	return j, nil
}

// recoverDir picks the authoritative WAL segment and recovers from it.
// Newest first: a rotated newest segment without an intact anchor is the
// artifact of a crash mid-rotation — the anchor never became durable, so
// the previous segment is still the authority; the artifact is deleted
// and the scan falls back. Once a segment recovers, every older segment
// is superseded by its anchor and is removed (finishing the deletes a
// crash may have interrupted).
func (j *Journal) recoverDir() error {
	segs, err := listSegments(j.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("journal: open %s: %w", j.dir, ErrNoRun)
	}
	chosen := -1
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		if s.seg == 0 {
			chosen = i
			break
		}
		buf, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("journal: read %s: %w", s.name, err)
		}
		ok, err := anchoredSegment(buf, s.name)
		if err != nil {
			return err
		}
		if ok {
			chosen = i
			break
		}
		// Torn rotation artifact: the previous segment never ceded
		// authority. Only the newest segment can be one — an anchored
		// segment's predecessors were all deleted before it accepted a
		// single append — so seeing a second means the files were
		// tampered with, which the fallback scan below surfaces as
		// corruption (no anchored segment and no wal.log → ErrNoRun-ish,
		// an anchored older segment recovers fine).
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("journal: drop torn segment %s: %w", s.name, err)
		}
		j.counters.Inc("compaction.wal.torn_segment_dropped")
		syncDir(j.dir)
	}
	if chosen < 0 {
		// Every file present was a torn rotation artifact: the run's
		// authority was lost with the pre-rotation segments, which only
		// happens if files were removed by hand.
		return fmt.Errorf("journal: only torn rotation artifacts in %s: %w", j.dir, ErrNoRun)
	}
	s := segs[chosen]
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open wal: %w", err)
	}
	j.wal = f
	j.seg = s.seg
	if err := j.recoverSegment(s); err != nil {
		return err
	}
	for _, old := range segs[:chosen] {
		if os.Remove(old.path) == nil {
			j.counters.Inc("compaction.wal.stale_segments_removed")
		}
	}
	if chosen > 0 {
		syncDir(j.dir)
	}
	return nil
}

// recoverSegment parses the chosen WAL segment and the checkpoint files
// into j.rec. A rotated segment opens with its anchor record, which seeds
// the recovered state with everything the deleted predecessors held.
func (j *Journal) recoverSegment(s segFile) error {
	buf, err := io.ReadAll(j.wal)
	if err != nil {
		return fmt.Errorf("journal: read wal: %w", err)
	}
	if len(buf) < len(walMagic) {
		// The process died before even the magic was durable: nothing ran.
		return fmt.Errorf("journal: wal shorter than magic: %w", ErrNoRun)
	}
	for i, b := range walMagic {
		if buf[i] != b {
			return CorruptError{File: s.name, Offset: int64(i), Reason: "bad magic"}
		}
	}
	recs, tornAt, scanErr := scanWAL(buf[len(walMagic):], int64(len(walMagic)), s.name)
	rec := &Recovery{
		Picks:  make(map[string][]uint64),
		Routes: make(map[string]int),
	}
	size := int64(len(buf))
	switch {
	case scanErr == nil:
	case errors.Is(scanErr, ErrTornTail):
		if err := j.wal.Truncate(tornAt); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		j.wal.Sync()
		size = tornAt
		rec.TornTail = true
		j.counters.Inc("torn_tail_truncated")
		j.counters.Add("torn_bytes", int64(len(buf))-tornAt)
	default:
		return scanErr
	}

	for i, r := range recs {
		switch r.typ {
		case recInputs:
			if i != 0 || s.seg != 0 {
				return CorruptError{File: s.name, Offset: r.offset, Reason: "misplaced inputs record"}
			}
			var body inputsRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
			rec.Snaps = body.Snaps
		case recAnchor:
			if i != 0 || s.seg == 0 {
				return CorruptError{File: s.name, Offset: r.offset, Reason: "misplaced anchor record"}
			}
			var body anchorRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
			if body.Seg != s.seg {
				return CorruptError{File: s.name, Offset: r.offset, Reason: fmt.Sprintf("anchor claims segment %d", body.Seg)}
			}
			rec.Snaps = body.Snaps
			for path, seqs := range body.Picks {
				rec.Picks[path] = append([]uint64(nil), seqs...)
			}
			for slot, node := range body.Routes {
				rec.Routes[slot] = node
			}
			rec.Members = append(rec.Members, body.Members...)
		case recPick:
			var body pickRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
			rec.Picks[body.Path] = append(rec.Picks[body.Path], body.Seq)
		case recCkpt:
			// Markers are advisory; the checkpoint files themselves are
			// scanned below.
			var body ckptRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
		case recRoute:
			var body routeRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
			rec.Routes[body.Slot] = body.Node
		case recMember:
			var body memberRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
			rec.Members = append(rec.Members, MemberRec(body))
		case recDone:
			var body doneRec
			if err := decodeBody(r, &body); err != nil {
				return err
			}
			rec.Done = true
			rec.Fingerprint = body.Fingerprint
		default:
			return CorruptError{File: s.name, Offset: r.offset, Reason: fmt.Sprintf("unknown record type %d", r.typ)}
		}
	}
	if len(recs) == 0 || (recs[0].typ != recInputs && recs[0].typ != recAnchor) {
		// Died before the inputs record became durable: the run never got
		// past the starting line, so there is nothing to resume.
		return fmt.Errorf("journal: no inputs record: %w", ErrNoRun)
	}
	j.segBytes = size
	j.snaps = rec.Snaps
	for path, seqs := range rec.Picks {
		j.picks[path] = append([]uint64(nil), seqs...)
	}

	cks, latest, err := j.loadCheckpoints()
	if err != nil {
		return err
	}
	rec.Checkpoints = cks
	for _, c := range cks {
		j.ckpts[c.Index] = c.Fingerprint
	}
	if latest != nil {
		rec.Latest = latest.Index
		// The checkpoint's script must be a prefix of the WAL's picks:
		// Picked writes ahead of every merge, so an intact checkpoint
		// can never know picks the WAL lost. A violation means the files
		// are from different runs or the bytes lie.
		snap := task.NewMergeScript()
		if err := snap.Restore(latest.Script); err != nil {
			return CorruptError{File: ckptName(latest.Index), Offset: 0, Reason: fmt.Sprintf("script snapshot: %v", err)}
		}
		for path, seqs := range snap.Picks() {
			wal := rec.Picks[path]
			if len(seqs) > len(wal) {
				return CorruptError{File: ckptName(latest.Index), Offset: 0, Reason: fmt.Sprintf("checkpoint knows %d picks for %s, wal holds %d", len(seqs), path, len(wal))}
			}
			for k, s := range seqs {
				if wal[k] != s {
					return CorruptError{File: ckptName(latest.Index), Offset: 0, Reason: fmt.Sprintf("checkpoint pick %d for %s disagrees with wal", k, path)}
				}
			}
		}
	}
	for slot, node := range rec.Routes {
		j.routes[slot] = node
	}
	for _, m := range rec.Members {
		j.members[m.Epoch] = m
	}
	j.rec = rec
	return nil
}

// Close fsyncs and closes the WAL. The journal refuses further appends.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return nil
	}
	if j.dead == nil {
		j.wal.Sync()
	}
	err := j.wal.Close()
	j.wal = nil
	return err
}

// appendLocked frames and durably appends one record. Callers hold j.mu.
func (j *Journal) appendLocked(typ byte, body any) error {
	if j.dead != nil {
		return j.dead
	}
	if j.wal == nil {
		j.dead = errors.New("journal: closed")
		return j.dead
	}
	frame, err := frameRecord(typ, body)
	if err != nil {
		j.dead = err
		return err
	}
	if err := j.countWrite(j.w, frame); err != nil {
		j.dead = fmt.Errorf("journal: append: %w", err)
		return j.dead
	}
	if err := j.wal.Sync(); err != nil {
		j.dead = fmt.Errorf("journal: sync: %w", err)
		return j.dead
	}
	j.counters.Inc("record_written")
	j.segBytes += int64(len(frame))
	// Rotate once the segment outgrows its budget — but never right after
	// the done record (the final segment must keep it) and never before
	// the inputs are durable (an anchor would have nothing to carry).
	if max := j.opts.SegmentBytes; max > 0 && j.segBytes >= max && j.snaps != nil && typ != recDone {
		j.rotateLocked()
	}
	return nil
}

// writeInputs journals the run's initial snapshots. Run calls it before
// executing any user code.
func (j *Journal) writeInputs(data []mergeable.Mergeable) error {
	var start time.Time
	if j.opts.Obs != nil {
		start = time.Now()
	}
	snaps, err := j.encodeAll(data)
	if err != nil {
		return err
	}
	j.mu.Lock()
	err = j.appendLocked(recInputs, inputsRec{Snaps: snaps})
	if err == nil {
		j.snaps = snaps
	}
	j.mu.Unlock()
	if err == nil && j.opts.Obs != nil {
		j.opts.Obs.Emit("journal", obs.KindAppend, "inputs", -1, int64(len(snaps)), time.Since(start))
	}
	return err
}

func (j *Journal) encodeAll(data []mergeable.Mergeable) ([]NamedSnapshot, error) {
	snaps := make([]NamedSnapshot, len(data))
	for i, m := range data {
		codec, b, err := j.opts.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("journal: encode %T: %w", m, err)
		}
		snaps[i] = NamedSnapshot{Codec: codec, Data: b}
	}
	return snaps, nil
}

// decodeInputs rebuilds fresh structures from the recovered snapshots. A
// snapshot that no longer decodes classifies as corruption: the journal
// cannot reproduce the run.
func (j *Journal) decodeInputs() ([]mergeable.Mergeable, error) {
	if j.rec == nil {
		return nil, errors.New("journal: no recovery state; decodeInputs is for opened journals")
	}
	data := make([]mergeable.Mergeable, len(j.rec.Snaps))
	for i, s := range j.rec.Snaps {
		m, err := j.opts.Decode(s.Codec, s.Data)
		if err != nil {
			return nil, CorruptError{File: walName, Offset: 0, Reason: fmt.Sprintf("input %d (%s) undecodable: %v", i, s.Codec, err)}
		}
		data[i] = m
	}
	return data, nil
}

// Pick implements task.Decider for the journal's run: a resumed run
// re-traces the durable picks path by path, and past them Options.Decider
// (if any) decides.
func (j *Journal) Pick(path string, candidates []uint64) (uint64, bool) {
	j.mu.Lock()
	i, durable := j.cursor[path], j.picks[path]
	j.mu.Unlock()
	if i < len(durable) {
		return durable[i], true
	}
	if d := j.opts.Decider; d != nil {
		return d.Pick(path, candidates)
	}
	return 0, false
}

// Picked implements task.Decider: the write-ahead append for every
// committed pick. A pick a resumed run re-traces is already durable — the
// runtime only commits what Pick forced — so it is counted, not
// re-appended.
func (j *Journal) Picked(path string, seq uint64) {
	// Pick spans live on per-path tracks ("wal/<parent path>"): the global
	// WAL append order interleaves scheduling-dependently across parents,
	// but each parent's own pick sequence is deterministic under replay —
	// exactly the track discipline package obs requires.
	tr := j.opts.Obs
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	j.mu.Lock()
	i := j.cursor[path]
	j.cursor[path] = i + 1
	if i < len(j.picks[path]) {
		j.counters.Inc("pick_replayed")
		if tr != nil {
			tr.Emit("wal/"+path, obs.KindReplay, "pick", -1, int64(seq), time.Since(start))
		}
	} else {
		// Accumulate before appending so a rotation triggered by this very
		// append snapshots an anchor that already includes the pick.
		j.picks[path] = append(j.picks[path], seq)
		if j.appendLocked(recPick, pickRec{Path: path, Seq: seq}) == nil {
			j.counters.Inc("pick_recorded")
			if tr != nil {
				tr.Emit("wal/"+path, obs.KindAppend, "pick", -1, int64(seq), time.Since(start))
			}
		}
	}
	j.mu.Unlock()
	if d := j.opts.Decider; d != nil {
		d.Picked(path, seq)
	}
}

// Yield implements task.Decider by handing the blocking point to
// Options.Decider.
func (j *Journal) Yield() {
	if d := j.opts.Decider; d != nil {
		d.Yield()
	}
}

// RecordRoute journals a dist coordinator routing decision for slot —
// dist.RouteJournal's write half. Re-recording the route a resume just
// replayed is a no-op.
func (j *Journal) RecordRoute(slot string, node int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cur, ok := j.routes[slot]; ok && cur == node {
		return
	}
	j.routes[slot] = node
	if j.appendLocked(recRoute, routeRec{Slot: slot, Node: node}) == nil {
		j.counters.Inc("route_recorded")
		if tr := j.opts.Obs; tr != nil {
			// Per-slot track: the slot's proxy task is the single logical
			// writer of its routing history.
			tr.Emit("route/"+slot, obs.KindAppend, "route", -1, int64(node), 0)
		}
	}
}

// RecordMember journals one cluster membership transition —
// dist.MembershipJournal's write half. Membership is epoch-keyed: a
// fresh epoch is appended write-ahead of the transition taking effect,
// while a resumed run re-executing a transition the journal already
// holds verifies it against the record instead (a mismatch — different
// kind or node at the same epoch — is a divergence, the resumed run is
// not re-tracing the crashed one).
func (j *Journal) RecordMember(epoch uint64, kind uint8, node int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if have, ok := j.members[epoch]; ok {
		if (have.Kind != kind || have.Node != node) && j.diverged == nil {
			j.diverged = DivergedError{Detail: fmt.Sprintf(
				"member epoch %d: journal has kind %d node %d, resumed run chose kind %d node %d",
				epoch, have.Kind, have.Node, kind, node)}
		}
		j.counters.Inc("member_replayed")
		if tr := j.opts.Obs; tr != nil {
			tr.Emit("journal", obs.KindReplay, "member", -1, int64(epoch), 0)
		}
		return
	}
	m := MemberRec{Epoch: epoch, Kind: kind, Node: node}
	j.members[epoch] = m
	if j.appendLocked(recMember, memberRec(m)) == nil {
		j.counters.Inc("member_recorded")
		if tr := j.opts.Obs; tr != nil {
			tr.Emit("journal", obs.KindAppend, "member", -1, int64(epoch), 0)
		}
	}
}

// NextRoute returns the journaled routing decision for slot, if any —
// dist.RouteJournal's replay half. A restarted coordinator re-drives its
// fan-out to the nodes the crashed run settled on instead of re-deriving
// placement from current health.
func (j *Journal) NextRoute(slot string) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	node, ok := j.routes[slot]
	if ok {
		j.counters.Inc("route_replayed")
	}
	return node, ok
}

// onRootMerge is the checkpoint cadence: every CheckpointEvery root
// merges, either verify against the intact checkpoint a prior run left at
// this ordinal, or write a new one.
func (j *Journal) onRootMerge(data []mergeable.Mergeable, n int) {
	every := j.opts.CheckpointEvery
	if every == 0 || n%every != 0 {
		return
	}
	tr := j.opts.Obs
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	fp := fingerprintAll(data)

	j.mu.Lock()
	defer j.mu.Unlock()
	if want, ok := j.ckpts[n]; ok {
		if want != fp && j.diverged == nil {
			j.diverged = DivergedError{Detail: fmt.Sprintf("checkpoint %d: journal fingerprint %016x, resumed run at %016x", n, want, fp)}
			if tr != nil {
				tr.Emit("journal", obs.KindCheckpoint, fmt.Sprintf("ckpt %d diverged", n), -1, 0, time.Since(start))
			}
		} else if want == fp {
			j.counters.Inc("checkpoint_verified")
			if tr != nil {
				tr.Emit("journal", obs.KindCheckpoint, fmt.Sprintf("ckpt %d verified", n), -1, 0, time.Since(start))
			}
		}
		return
	}
	if j.dead != nil {
		return
	}
	snaps, err := j.encodeAll(data)
	if err != nil {
		j.dead = err
		return
	}
	// The checkpoint's script is the picks this run has committed so far,
	// a prefix of the durable ones.
	script := task.NewMergeScript()
	for path, k := range j.cursor {
		for _, seq := range j.picks[path][:k] {
			script.Picked(path, seq)
		}
	}
	if err := j.writeCheckpoint(ckptPayload{Index: n, Script: script.Snapshot(), Snaps: snaps, Fingerprint: fp}); err != nil {
		j.dead = err
		return
	}
	j.ckpts[n] = fp
	j.counters.Inc("checkpoint_written")
	if retain := j.opts.RetainCheckpoints; retain > 0 {
		j.pruneCheckpoints(retain)
	}
	j.appendLocked(recCkpt, ckptRec{Index: n, Fingerprint: fp})
	if tr != nil {
		tr.Emit("journal", obs.KindCheckpoint, fmt.Sprintf("ckpt %d written", n), -1, int64(len(snaps)), time.Since(start))
	}
}

// fingerprintAll folds the structures' fingerprints in data order.
func fingerprintAll(data []mergeable.Mergeable) uint64 {
	fps := make([]uint64, len(data))
	for i, m := range data {
		fps[i] = m.Fingerprint()
	}
	return mergeable.CombineFingerprints(fps...)
}
