package explore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

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
}

// countWriter measures a reference run's total journal bytes so crash
// budgets can be spread across real write boundaries.
type countWriter struct{ n atomic.Int64 }

func (c *countWriter) wrap(w io.Writer) io.Writer { return &countProxy{c: c, w: w} }

type countProxy struct {
	c *countWriter
	w io.Writer
}

func (p *countProxy) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	p.c.n.Add(int64(n))
	return n, err
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
	}
}

// crashCheck holds one schedule to crash-resume equivalence. It returns
// the first violation found, or nil.
func crashCheck(sc Scenario, opts Options, out schedOut) *Violation {
	cc := opts.Crash
	bad := func(detail string, err error) *Violation {
		return &Violation{Kind: KindCrash, Detail: detail, Err: err}
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
	cw := &countWriter{}
	env := &Env{src: newSource(out.trace, nil, opts.MaxDecisions)}
	fn, data := sc.Build(env)
	runErr := journal.Run(refDir, cc.journalOpts(env, cw.wrap), fn, data...)
	env.runDeferred()
	if runErr != nil {
		return bad("journaled reference run failed", runErr)
	}
	if fp := fingerprintOf(sc, data); fp != out.fp {
		return bad(fmt.Sprintf("journaled reference run gave %016x, live schedule gave %016x", fp, out.fp), nil)
	}
	total := cw.n.Load()
	if total < 2 {
		return nil // nothing to tear
	}

	points := cc.Points
	for i := 1; i <= points; i++ {
		budget := total * int64(i) / int64(points+1)
		if budget < 1 {
			budget = 1
		}
		if budget > total-1 {
			budget = total - 1
		}
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
	env := &Env{src: newSource(out.trace, nil, opts.MaxDecisions)}
	fn, data := sc.Build(env)
	runErr := journal.Run(dir, cc.journalOpts(env, crasher.Wrap), fn, data...)
	env.runDeferred()
	_ = runErr // the crashed run is supposed to fail; recovery is the test
	if !crasher.Crashed() && runErr != nil {
		return bad(fmt.Sprintf("journaled run failed before the crash budget (%d bytes) was reached", budget), runErr)
	}

	renv := &Env{src: newSource(out.trace, nil, opts.MaxDecisions)}
	rfn, _ := sc.Build(renv)
	rdata, rerr := journal.Resume(dir, cc.journalOpts(renv, nil), rfn)
	renv.runDeferred()
	if errors.Is(rerr, journal.ErrNoRun) {
		// The crash landed before the inputs record was durable: nothing
		// ever started, and recovery saying so is the correct answer — the
		// caller re-runs from scratch.
		return nil
	}
	if rerr != nil {
		return bad(fmt.Sprintf("resume after crash at byte %d failed", budget), rerr)
	}
	if sc.Deterministic {
		if fp := fingerprintOf(sc, rdata); fp != out.fp {
			return &Violation{
				Kind:        KindCrash,
				Detail:      fmt.Sprintf("resume after crash at byte %d gave %016x, live schedule gave %016x", budget, fp, out.fp),
				Fingerprint: fp,
				Want:        out.fp,
			}
		}
	}
	if verr := journal.Verify(dir); verr != nil {
		return bad(fmt.Sprintf("journal does not verify after resume from crash at byte %d", budget), verr)
	}
	return nil
}
