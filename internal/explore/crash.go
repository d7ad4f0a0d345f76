package explore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/mergeable"
	"repro/internal/stats"
)

// CrashCheck configures crash-point exploration: each explored schedule is
// re-run journaled, killed at byte boundaries spread across its WAL +
// checkpoint write stream (journal.CrashWriter), and resumed — recovery
// must succeed from every crash point, the sealed journal must verify,
// and for Deterministic scenarios the resumed outcome must equal the live
// schedule's fingerprint. Non-deterministic scenarios get the weaker
// guarantee recovery actually provides: the journaled prefix is re-traced
// exactly, but fresh picks past the crash point are the resumed run's own,
// so only success and seal integrity are asserted.
type CrashCheck struct {
	// Encode / Decode carry structures across the disk boundary — the
	// same contract as journal.Options (dist.EncodeSnapshot /
	// dist.DecodeSnapshot satisfy them; the repro facade wires that in).
	Encode func(m mergeable.Mergeable) (codec string, data []byte, err error)
	Decode func(codec string, data []byte) (mergeable.Mergeable, error)
	// Points is how many crash boundaries are swept per schedule,
	// spread evenly over the reference run's byte total; default 3.
	Points int
	// Dir is the scratch directory for journal dirs; empty means the OS
	// temp dir.
	Dir string
	// CheckpointEvery is passed through to the journal; zero keeps the
	// journal's default cadence.
	CheckpointEvery int
	// SegmentBytes is the journal's WAL rotation threshold: a small value
	// forces segment rotation (and old-segment reclaim) inside the crash
	// sweep, so tears land on segment boundaries, fresh anchors and
	// half-written rotations too. Zero keeps a single unbounded segment.
	SegmentBytes int64
	// RetainCheckpoints prunes the crash journals' checkpoint files down
	// to the newest N after each new checkpoint; zero keeps every one.
	RetainCheckpoints int
	// Stats, when non-nil, receives the journals' counters (rotation,
	// reclaim and pruning live under "compaction.*") aggregated across
	// every journaled run of the sweep.
	Stats *stats.Counters
	// Kill, when non-nil, replaces the in-process byte sweep with a real
	// process: it gets the schedule's trace and returns the outcome that a
	// journaled child, SIGKILLed and resumed until it finished, reached
	// (the child half is RunJournaled).
	Kill func(Trace) (uint64, error)
}

// hookWriter calls before with each write's length ahead of the write:
// the reference run counts its journal bytes through it, so crash budgets
// land on real write boundaries, and a kill child pauses on it.
type hookWriter struct {
	w      io.Writer
	before func(n int)
}

func (h hookWriter) Write(b []byte) (int, error) {
	h.before(len(b))
	return h.w.Write(b)
}

// hook wraps every journal writer in a hookWriter calling before.
func hook(before func(n int)) func(io.Writer) io.Writer {
	return func(w io.Writer) io.Writer { return hookWriter{w, before} }
}

// journalOpts builds one journaled run's options: the schedule's Env
// decides fresh picks (journaled picks take precedence on resume) and
// keeps pulsing the watchdog.
func (cc *CrashCheck) journalOpts(env *Env, wrap func(io.Writer) io.Writer) journal.Options {
	return journal.Options{
		Encode:            cc.Encode,
		Decode:            cc.Decode,
		CheckpointEvery:   cc.CheckpointEvery,
		SegmentBytes:      cc.SegmentBytes,
		RetainCheckpoints: cc.RetainCheckpoints,
		History:           env.history,
		Stats:             cc.Stats,
		WrapWriter:        wrap,
		Decider:           env,
		OnOpen:            env.onOpen,
	}
}

// crashCheck holds one schedule to crash-resume equivalence. It returns
// the first violation found, or nil.
func crashCheck(sc Scenario, opts Options, out schedOut) *Violation {
	cc := opts.Crash
	bad := func(detail string, err error) *Violation {
		return &Violation{Kind: KindCrash, Detail: detail, Err: err}
	}
	if cc.Kill != nil {
		fp, err := cc.Kill(out.trace)
		if err != nil {
			return bad("killed-and-resumed run failed", err)
		}
		if sc.Deterministic && fp != out.fp {
			return &Violation{Kind: KindCrash, Fingerprint: fp, Want: out.fp,
				Detail: fmt.Sprintf("killed-and-resumed run gave %016x, live schedule gave %016x", fp, out.fp)}
		}
		return nil
	}

	// Reference journaled run: same decision trace, no crash. Its byte
	// total defines the crash boundaries, and its outcome must already
	// match the live schedule — if journaling alone perturbs the result,
	// crashing is beside the point.
	refDir, err := os.MkdirTemp(cc.Dir, "explore-journal-*")
	if err != nil {
		return bad("cannot create journal scratch dir", err)
	}
	defer os.RemoveAll(refDir)
	var written atomic.Int64 // the journal's writers may run concurrently
	fp, _, err := runJournaled(sc, out.trace, refDir, opts, hook(func(n int) { written.Add(int64(n)) }))
	if err != nil {
		return bad("journaled reference run failed", err)
	}
	if fp != out.fp {
		return bad(fmt.Sprintf("journaled reference run gave %016x, live schedule gave %016x", fp, out.fp), nil)
	}
	total := written.Load()
	// A budget past the run's bytes never crashes: its resume replays the
	// sealed journal end to end, which must land on the live outcome too.
	if v := crashAt(sc, opts, out, total+1); v != nil || total < 2 {
		return v // or nothing to tear
	}
	for i := 1; i <= cc.Points; i++ {
		budget := min(max(total*int64(i)/int64(cc.Points+1), 1), total-1)
		if v := crashAt(sc, opts, out, budget); v != nil {
			return v
		}
	}
	return nil
}

// crashAt runs the schedule journaled with a byte-budget crash, resumes,
// and checks the recovered outcome.
func crashAt(sc Scenario, opts Options, out schedOut, budget int64) *Violation {
	cc := opts.Crash
	bad := func(detail string, err error) *Violation {
		return &Violation{Kind: KindCrash, Detail: detail, Err: err}
	}
	dir, err := os.MkdirTemp(cc.Dir, "explore-crash-*")
	if err != nil {
		return bad("cannot create journal scratch dir", err)
	}
	defer os.RemoveAll(dir)

	crasher := journal.NewCrashWriter(budget)
	_, _, runErr := runJournaled(sc, out.trace, dir, opts, crasher.Wrap)
	if !crasher.Crashed() && runErr != nil {
		return bad(fmt.Sprintf("journaled run failed before the crash budget (%d bytes) was reached", budget), runErr)
	}
	// Recovery; a crash before the inputs record was durable left no run,
	// and the schedule starts over.
	fp, _, err := runJournaled(sc, out.trace, dir, opts, nil)
	if err != nil {
		return bad(fmt.Sprintf("resume after crash at byte %d failed", budget), err)
	}
	if sc.Deterministic && fp != out.fp {
		return &Violation{
			Kind:        KindCrash,
			Detail:      fmt.Sprintf("resume after crash at byte %d gave %016x, live schedule gave %016x", budget, fp, out.fp),
			Fingerprint: fp,
			Want:        out.fp,
		}
	}
	if verr := journal.Verify(dir); verr != nil {
		return bad(fmt.Sprintf("journal does not verify after resume from crash at byte %d", budget), verr)
	}
	return nil
}

// killPause is how long a kill child sleeps before each journal write, so
// a process kill lands mid-run.
const killPause = 4 * time.Millisecond

// RunJournaled is the child half of a kill check (CrashCheck.Kill): it
// runs schedule tr of sc journaled in dir, resuming what a killed process
// left there, and reports the outcome and whether it resumed. opts.Crash
// supplies the codecs and journal knobs; every journal write is delayed
// by killPause.
func RunJournaled(sc Scenario, tr Trace, dir string, opts Options) (fp uint64, resumed bool, err error) {
	o, err := opts.normalized(sc)
	if err == nil && o.Crash == nil {
		err = errors.New("explore: RunJournaled needs Options.Crash")
	}
	if err != nil {
		return 0, false, err
	}
	return runJournaled(sc, tr, dir, o, hook(func(int) { time.Sleep(killPause) }))
}

// runJournaled resumes schedule tr's journal in dir or, when nothing
// durable is there, runs it afresh; wrap (may be nil) wraps the journal's
// writers.
func runJournaled(sc Scenario, tr Trace, dir string, opts Options, wrap func(io.Writer) io.Writer) (fp uint64, resumed bool, err error) {
	env := &Env{src: newSource(tr, nil, opts.MaxDecisions), size: opts.Size, dir: dir}
	defer env.runDeferred()
	fn, data := sc.Build(env)
	jopts := opts.Crash.journalOpts(env, wrap)
	rdata, err := journal.Resume(dir, jopts, fn)
	if resumed = !errors.Is(err, journal.ErrNoRun); !resumed {
		if err = os.RemoveAll(dir); err == nil {
			err = journal.Run(dir, jopts, fn, data...)
		}
		rdata = data
	}
	if err != nil {
		return 0, resumed, err
	}
	return fingerprintOf(sc, rdata), resumed, nil
}
