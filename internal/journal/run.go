package journal

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/task"
)

// Run executes fn as a journaled root task: the initial snapshots of data
// are made durable before any user code runs, every committed
// MergeAny/MergeAnyFromSet pick streams into the WAL ahead of its merge,
// and checkpoints land on the Options cadence. On success a done record
// seals the journal with the final fingerprint. If the journal dies
// mid-run (disk failure, injected crash), the in-memory run finishes but
// Run reports the journal's failure — the caller must treat the run as
// crashed and recover with Resume.
func Run(dir string, opts Options, fn task.Func, data ...mergeable.Mergeable) error {
	j, err := Create(dir, opts)
	if err != nil {
		return err
	}
	defer j.Close()
	if err := j.writeInputs(data); err != nil {
		return err
	}
	if opts.OnOpen != nil {
		opts.OnOpen(j)
	}
	return j.execute(fn, data)
}

// Resume recovers the journal in dir and re-runs fn over the recovered
// initial snapshots with the durable picks forced, returning the final
// structures. The replayed prefix re-traces the crashed run exactly —
// divergence from any journaled pick or checkpoint fingerprint surfaces
// as ErrDiverged — and execution past the prefix continues live, with
// fresh picks journaled, so an interrupted Resume is itself resumable.
// Resuming an already completed journal replays it fully and verifies the
// final fingerprint — deterministic replay as a read path.
func Resume(dir string, opts Options, fn task.Func) ([]mergeable.Mergeable, error) {
	j, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	data, err := j.decodeInputs()
	if err != nil {
		return nil, err
	}
	j.counters.Inc("resume")
	if opts.OnOpen != nil {
		opts.OnOpen(j)
	}
	if err := j.execute(fn, data); err != nil {
		if errors.Is(err, task.ErrBadPick) {
			err = DivergedError{Detail: err.Error()}
		}
		return nil, err
	}
	return data, nil
}

// execute runs fn with the journal as its decider (durable picks first,
// write-ahead pick records), the checkpoint cadence and the span tracer,
// then seals or verifies the done record.
func (j *Journal) execute(fn task.Func, data []mergeable.Mergeable) error {
	runErr := task.RunWith(task.RunConfig{
		Decider:     j,
		OnRootMerge: j.onRootMerge,
		Obs:         j.opts.Obs,
		History:     j.opts.History,
	}, fn, data...)
	if err := errors.Join(runErr, j.Err()); err != nil {
		return err
	}
	fp := fingerprintAll(data)
	if j.rec != nil && j.rec.Done {
		if fp != j.rec.Fingerprint {
			return DivergedError{Detail: fmt.Sprintf("final fingerprint %016x, journal sealed at %016x", fp, j.rec.Fingerprint)}
		}
		j.counters.Inc("done_verified")
		if tr := j.opts.Obs; tr != nil {
			tr.Emit("journal", obs.KindReplay, "done", -1, 0, 0)
		}
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.appendLocked(recDone, doneRec{Fingerprint: fp})
	if err == nil {
		if tr := j.opts.Obs; tr != nil {
			tr.Emit("journal", obs.KindAppend, "done", -1, 0, 0)
		}
	}
	return err
}

// Verify is the read-only integrity check: it scans dir's WAL segments
// and checkpoints without truncating, deleting or appending anything and
// reports what recovery would find — nil for a clean journal, ErrTornTail
// for an incomplete final record or a torn mid-rotation segment (both
// recoverable), ErrCorrupt for real damage, ErrNoRun for a directory with
// no recoverable run.
func Verify(dir string) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("journal: verify %s: %w", dir, ErrNoRun)
	}
	var torn error
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		buf, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("journal: verify: %w", err)
		}
		if s.seg != 0 {
			ok, err := anchoredSegment(buf, s.name)
			if err != nil {
				return err
			}
			if !ok {
				// Torn mid-rotation artifact: recovery would delete it and
				// fall back to the previous segment. Report the tear but
				// keep verifying the segment that still holds the run.
				torn = TornTailError{File: s.name, Offset: int64(len(buf))}
				continue
			}
		}
		if err := verifySegment(buf, s); err != nil {
			return err
		}
		return torn
	}
	return fmt.Errorf("journal: only torn rotation artifacts in %s: %w", dir, ErrNoRun)
}

// verifySegment checks one segment's framing and record decodability.
func verifySegment(buf []byte, s segFile) error {
	if len(buf) < len(walMagic) {
		return fmt.Errorf("journal: wal shorter than magic: %w", ErrNoRun)
	}
	for i, b := range walMagic {
		if buf[i] != b {
			return CorruptError{File: s.name, Offset: int64(i), Reason: "bad magic"}
		}
	}
	recs, _, scanErr := scanWAL(buf[len(walMagic):], int64(len(walMagic)), s.name)
	if scanErr != nil && !errors.Is(scanErr, ErrTornTail) {
		return scanErr
	}
	var sawInputs bool
	for i, r := range recs {
		var decodeErr error
		switch r.typ {
		case recInputs:
			if i != 0 || s.seg != 0 {
				return CorruptError{File: s.name, Offset: r.offset, Reason: "misplaced inputs record"}
			}
			var body inputsRec
			decodeErr = decodeBody(r, &body)
			sawInputs = decodeErr == nil
		case recAnchor:
			if i != 0 || s.seg == 0 {
				return CorruptError{File: s.name, Offset: r.offset, Reason: "misplaced anchor record"}
			}
			var body anchorRec
			decodeErr = decodeBody(r, &body)
			sawInputs = decodeErr == nil
		case recPick:
			var body pickRec
			decodeErr = decodeBody(r, &body)
		case recCkpt:
			var body ckptRec
			decodeErr = decodeBody(r, &body)
		case recRoute:
			var body routeRec
			decodeErr = decodeBody(r, &body)
		case recDone:
			var body doneRec
			decodeErr = decodeBody(r, &body)
		case recMember:
			var body memberRec
			decodeErr = decodeBody(r, &body)
		default:
			return CorruptError{File: s.name, Offset: r.offset, Reason: fmt.Sprintf("unknown record type %d", r.typ)}
		}
		if decodeErr != nil {
			return decodeErr
		}
	}
	if !sawInputs {
		return fmt.Errorf("journal: no inputs record: %w", ErrNoRun)
	}
	return scanErr
}
