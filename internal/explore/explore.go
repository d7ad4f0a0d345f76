// Package explore is the deterministic-simulation schedule explorer: it
// seizes every nondeterminism source the runtime has — MergeAny /
// MergeAnyFromSet completion order (via the scheduler hook in
// internal/task), faultnet chaos decisions (drops, resets, partitions,
// dial failures) and journal crash points — and drives them all from one
// seeded decision stream, so a schedule is a value: recordable,
// replayable, enumerable and shrinkable.
//
// Two strategies walk the schedule space: a seeded random walk (the
// workhorse) and bounded-exhaustive DFS that enumerates every reachable
// combination of picks within a budget.
// On every explored schedule the paper's claims are checked automatically:
//
//   - determinism (Section IV.A): a scenario marked Deterministic must
//     produce one bit-identical fingerprint on every schedule;
//   - MergeAny soundness (Section II.D): the outcome must equal the
//     result of sequentially forcing the recorded pick order — the
//     executed MergeScript is replayed through the production replay
//     path and the fingerprints compared;
//   - progress (Section IV.B): a bounded-progress watchdog flags
//     schedules whose runtime stops pulsing — a deadlock, a livelock, or
//     a decision loop that blew the per-schedule budget;
//   - crash-resume equivalence (optional, Options.Crash): the schedule
//     is re-run journaled, killed at explored byte boundaries with
//     journal.CrashWriter (or SIGKILLed in a child process, with
//     CrashCheck.Kill), resumed, and held to the live outcome.
//
// A failing schedule is delta-debugged down to a minimal decision trace
// and persisted as a seed file that reproduces the failure on replay
// (ReplaySeed) — the counterexample is the artifact, not the log.
package explore

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/task"
)

// Scenario is one program under exploration. Build must construct all
// state fresh per call so schedules are independent.
type Scenario struct {
	// Name identifies the scenario in reports and seed files.
	Name string
	// Build returns a fresh root Func and data set for one schedule. The
	// env carries the schedule's decision stream: wire env.Decide into
	// faultnet.Config.Decider (or any scenario-level choice) so chaos is
	// explored, not random. Cleanup (clusters, listeners) registers with
	// env.Defer.
	Build func(env *Env) (task.Func, []mergeable.Mergeable)
	// Fingerprint reduces the final structures to the observable outcome;
	// nil means the combined structure fingerprint (Fingerprint).
	Fingerprint func(data []mergeable.Mergeable) uint64
	// Deterministic asserts the program admits exactly one outcome (it is
	// MergeAll-only, or its MergeAny results are order-insensitive): any
	// second fingerprint is a violation.
	Deterministic bool
	// TolerateError, when non-nil, classifies run errors that are part of
	// the scenario's contract (e.g. a chaos transport legitimately
	// killing a run) — such schedules count as lost, not as violations.
	TolerateError func(error) bool
}

// Env is a schedule's view of its decision stream, handed to
// Scenario.Build. It is also the schedule's task.Decider: MergeAny picks
// come from the stream, every blocking point pulses the stall watchdog,
// and committed picks are recorded into script.
type Env struct {
	src      *Source
	size     int
	dir      string // journal directory of a journaled run
	onOpen   func(*journal.Journal)
	deferred []func()
	history  task.HistoryGC
	// script, when non-nil, records the committed picks; with replaying
	// set it holds a recorded run's picks and forces them instead of the
	// stream (the MergeAny cross-check).
	script    *task.MergeScript
	replaying bool
}

// Decide resolves a scenario-level decision point with n alternatives,
// returning a pick in [0, n). Alternative 0 should be the benign default.
// The signature matches faultnet.Config.Decider, so chaos wiring is
// `Decider: env.Decide`.
func (e *Env) Decide(site string, n int) int { return e.src.Choose(site, n) }

// DecideEach is Decide for a configuration choice each of whose
// alternatives a run must try: in place of a random draw, the random
// walk's k-th schedule (the baseline is 0) answers the covering sites with
// the mixed-radix digits of k, in the order they are decided, so the
// first n₁·n₂·… schedules take every combination once. A run that never
// reached an alternative is not clean (Result.Uncovered).
func (e *Env) DecideEach(site string, n int) int { return e.src.choose(site, n, true) }

// Size is the schedule's load (Options.Size), for scenarios that scale.
func (e *Env) Size() int { return e.size }

// JournalDir is the directory a journaled run (a crash check's) writes,
// or "" for a live run.
func (e *Env) JournalDir() string { return e.dir }

// OnJournal hands a journaled run's journal to f before the program
// starts (journal.Options.OnOpen), to wire coordinator state into it.
func (e *Env) OnJournal(f func(*journal.Journal)) { e.onOpen = f }

// Defer registers cleanup to run after the schedule completes, LIFO.
// Build runs on the schedule's goroutine, so no locking is needed.
func (e *Env) Defer(f func()) { e.deferred = append(e.deferred, f) }

// SetHistory selects the run's history-compaction policy (wired into
// task.RunConfig.History and, under crash exploration, into the journaled
// runs). Deciding the policy from the decision stream makes the GC knob
// itself an explored site: on a Deterministic scenario every choice —
// eager trim, deferred slack, GC off — must land on one fingerprint,
// which is the compaction-invisibility claim in executable form.
func (e *Env) SetHistory(h task.HistoryGC) { e.history = h }

func (e *Env) runDeferred() {
	for i := len(e.deferred) - 1; i >= 0; i-- {
		e.deferred[i]()
	}
	e.deferred = nil
}

// Pick implements task.Decider from the decision stream: candidates
// arrive in creation order, so pick 0 is the deterministic default and the
// decision's N is the fan-in of the merge. A replaying Env forces the
// script's picks and leaves the rest first-completed.
func (e *Env) Pick(parentPath string, candidates []uint64) (uint64, bool) {
	if e.replaying {
		return e.script.Pick(parentPath, candidates)
	}
	pick := e.src.Choose("merge:"+parentPath, len(candidates))
	if pick < 0 || pick >= len(candidates) {
		pick = 0
	}
	return candidates[pick], true
}

// Picked implements task.Decider by recording the pick into script.
func (e *Env) Picked(parentPath string, childSeq uint64) {
	if e.script != nil {
		e.script.Picked(parentPath, childSeq)
	}
}

// Yield implements task.Decider by pulsing the stall watchdog.
func (e *Env) Yield() { e.src.pulse() }

// Violation kinds.
const (
	KindDeterminism = "determinism"       // second fingerprint on a Deterministic scenario
	KindReplay      = "replay-divergence" // outcome != replay of the recorded pick order
	KindStall       = "stall"             // bounded-progress watchdog fired
	KindError       = "error"             // the run failed and the scenario does not tolerate it
	KindCrash       = "crash-divergence"  // journaled crash/resume did not reproduce the outcome
)

// Violation is one schedule that broke an invariant, with its (shrunk)
// decision trace and, when persisted, the seed file that replays it.
type Violation struct {
	Kind     string
	Scenario string
	Detail   string
	// Err is the underlying run error for KindError.
	Err error
	// Fingerprint/Want are the diverging outcomes where applicable.
	Fingerprint, Want uint64
	// Trace reproduces the violation through ReplayTrace/ReplaySeed. When
	// shrinking ran it is minimal: removing any decision loses the bug.
	Trace Trace
	// RawLen is the decision count before shrinking.
	RawLen int
	// SeedFile is where the trace was persisted (Options.SeedDir).
	SeedFile string
	// SpanDiff localizes a determinism violation: the first divergences
	// between the baseline schedule's span tree and this one's.
	SpanDiff []string
}

func (v *Violation) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "explore: %s: %s violation", v.Scenario, v.Kind)
	if v.Detail != "" {
		fmt.Fprintf(&sb, ": %s", v.Detail)
	}
	if v.Err != nil {
		fmt.Fprintf(&sb, ": %v", v.Err)
	}
	if len(v.Trace) > 0 {
		fmt.Fprintf(&sb, " (trace %d decisions, raw %d)", len(v.Trace), v.RawLen)
	}
	if v.SeedFile != "" {
		fmt.Fprintf(&sb, " [seed %s]", v.SeedFile)
	}
	return sb.String()
}

// Options configures an exploration.
type Options struct {
	// Strategy picks the walk; default RandomWalk.
	Strategy Strategy
	// Schedules bounds how many schedules run per GOMAXPROCS value;
	// default 64. The exhaustive strategy stops earlier when the space is
	// fully enumerated (Result.Exhausted).
	Schedules int
	// Seed drives the random walk.
	Seed int64
	// Size is handed to every schedule as Env.Size.
	Size int
	// MaxDecisions bounds decisions per schedule (default 4096); past it
	// the schedule is flagged by the stall watchdog.
	MaxDecisions int
	// StallTimeout is the bounded-progress watchdog window: a schedule
	// whose runtime stops pulsing for this long is a stall violation.
	// Zero means 10s; negative disables it.
	StallTimeout time.Duration
	// Procs sweeps GOMAXPROCS across the given values (restored after),
	// re-running the budget under each — the "regardless of the number of
	// cores" claim. Empty means the current setting only.
	Procs []int
	// DisableReplayCheck skips the MergeAny pick-order cross-check.
	DisableReplayCheck bool
	// Crash enables crash-point exploration (see CrashCheck).
	Crash *CrashCheck
	// Shrink delta-debugs failing schedules to minimal traces.
	Shrink bool
	// ShrinkBudget caps predicate re-runs per shrink; default 200.
	ShrinkBudget int
	// SeedDir, when set, persists every violation's trace as a replayable
	// seed file in this directory.
	SeedDir string
	// FailFast stops at the first violation (or first intolerable error).
	FailFast bool
	// Stats, when non-nil, receives the explorer's counters ("schedule",
	// "decision", "violation", "lost", "stall", "replay_check",
	// "crash_check", "shrink_try", "seed_persisted") — register it in an
	// obs.Registry to export exploration progress over /metrics.
	Stats *stats.Counters
}

func (o Options) normalized(sc Scenario) (Options, error) {
	if sc.Build == nil {
		return o, fmt.Errorf("explore: scenario %q has no Build", sc.Name)
	}
	if o.Schedules <= 0 {
		o.Schedules = 64
	}
	if o.MaxDecisions <= 0 {
		o.MaxDecisions = 4096
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 10 * time.Second
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 200
	}
	if o.Stats == nil {
		o.Stats = stats.NewCounters()
	}
	if o.Crash != nil {
		if o.Crash.Encode == nil || o.Crash.Decode == nil {
			return o, fmt.Errorf("explore: CrashCheck.Encode and Decode are required")
		}
		if o.Crash.Points <= 0 {
			o.Crash.Points = 3
		}
	}
	return o, nil
}

// Result summarizes an exploration.
type Result struct {
	Scenario string
	// Schedules ran to an outcome (including lost ones); Decisions is the
	// total decision count across them.
	Schedules int
	Decisions int64
	// Lost schedules ended in a tolerated error (chaos killing a run).
	Lost int
	// Exhausted reports the exhaustive strategy enumerated its whole
	// space within the budget.
	Exhausted bool
	// Outcomes maps observed fingerprints to occurrence counts.
	Outcomes map[uint64]int
	// Violations holds every invariant breach found, in discovery order.
	Violations []*Violation
	// Uncovered lists, as site=pick, the alternatives of covering
	// decisions (Env.DecideEach) that no schedule reaching an outcome took.
	Uncovered []string
}

// Ok reports a clean exploration: no violation, every covering
// alternative checked, and at least one schedule that was not lost — a
// run that loses every schedule checked no invariant at all.
func (r *Result) Ok() bool { return len(r.Violations) == 0 && len(r.Uncovered) == 0 && !r.allLost() }

func (r *Result) allLost() bool { return r.Schedules > 0 && r.Lost == r.Schedules }

// String renders a one-line summary.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d schedules, %d decisions, %d outcomes", r.Scenario, r.Schedules, r.Decisions, len(r.Outcomes))
	if r.Lost > 0 {
		fmt.Fprintf(&sb, ", %d lost", r.Lost)
	}
	if r.Exhausted {
		sb.WriteString(", space exhausted")
	}
	switch {
	case r.allLost():
		sb.WriteString(", EVERY SCHEDULE LOST")
	case len(r.Uncovered) > 0 && len(r.Violations) == 0:
		fmt.Fprintf(&sb, ", NEVER TRIED %s", strings.Join(r.Uncovered, " "))
	case len(r.Violations) == 0:
		sb.WriteString(", clean")
	default:
		fmt.Fprintf(&sb, ", %d VIOLATIONS", len(r.Violations))
	}
	return sb.String()
}

// Fingerprint folds the structures' fingerprints in data order — the
// default outcome reduction.
func Fingerprint(data ...mergeable.Mergeable) uint64 {
	fps := make([]uint64, len(data))
	for i, m := range data {
		fps[i] = m.Fingerprint()
	}
	return mergeable.CombineFingerprints(fps...)
}

// Run explores sc's schedule space under opts and reports what it found.
// The returned error covers misconfiguration only; invariant breaches are
// Result.Violations.
func Run(sc Scenario, opts Options) (*Result, error) {
	o, err := opts.normalized(sc)
	if err != nil {
		return nil, err
	}
	x := &explorer{
		sc:   sc,
		opts: o,
		res:  &Result{Scenario: sc.Name, Outcomes: make(map[uint64]int)},
	}
	procs := o.Procs
	if len(procs) == 0 {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		x.explorePass()
		if o.FailFast && len(x.res.Violations) > 0 {
			break
		}
	}
	for _, site := range slices.Sorted(maps.Keys(x.tried)) {
		for pick, ok := range x.tried[site] {
			if !ok {
				x.res.Uncovered = append(x.res.Uncovered, fmt.Sprintf("%s=%d", site, pick))
			}
		}
	}
	return x.res, nil
}

// explorer is one Run's state.
type explorer struct {
	sc   Scenario
	opts Options
	res  *Result

	haveRef bool
	refFP   uint64
	// tried marks, per covering site, the alternatives taken by a
	// schedule that reached an outcome.
	tried map[string][]bool
}

// explorePass runs one GOMAXPROCS sweep's schedule budget.
func (x *explorer) explorePass() {
	st := newStrategyState(x.opts.Strategy, x.opts.Seed)
	n := 0
	if x.opts.Strategy == RandomWalk {
		// Anchor the reference outcome on the all-default baseline
		// schedule before randomizing. (Exhaustive starts there anyway.)
		x.runOne(newSource(nil, nil, x.opts.MaxDecisions), st)
		n++
	}
	for n < x.opts.Schedules {
		if x.opts.FailFast && len(x.res.Violations) > 0 {
			return
		}
		src, ok := st.next(x.opts.MaxDecisions)
		if !ok {
			x.res.Exhausted = true
			return
		}
		x.runOne(src, st)
		n++
	}
}

// runOne executes a single schedule and applies every invariant check.
func (x *explorer) runOne(src *Source, st strategyState) {
	out := runSchedule(x.sc, src, x.opts, nil, nil)
	x.res.Schedules++
	x.res.Decisions += int64(len(out.trace))
	x.opts.Stats.Inc("schedule")
	x.opts.Stats.Add("decision", int64(len(out.trace)))
	st.observe(src)

	var v *Violation
	switch {
	case out.stalled:
		detail := "runtime made no progress within the watchdog window"
		if out.over {
			detail = fmt.Sprintf("decision budget (%d) exhausted and no further progress — livelock suspect", x.opts.MaxDecisions)
		}
		x.opts.Stats.Inc("stall")
		v = &Violation{Kind: KindStall, Detail: detail}
	case out.err != nil:
		if x.sc.TolerateError != nil && x.sc.TolerateError(out.err) {
			x.res.Lost++
			x.opts.Stats.Inc("lost")
			return
		}
		v = &Violation{Kind: KindError, Err: out.err}
	default:
		x.res.Outcomes[out.fp]++
		x.markTried(src)
		if x.sc.Deterministic {
			if !x.haveRef {
				x.haveRef, x.refFP = true, out.fp
			} else if out.fp != x.refFP {
				v = &Violation{
					Kind:        KindDeterminism,
					Detail:      fmt.Sprintf("fingerprint %016x, baseline %016x", out.fp, x.refFP),
					Fingerprint: out.fp,
					Want:        x.refFP,
				}
			}
		}
		if v == nil && !x.opts.DisableReplayCheck && out.script != nil && out.script.Len() > 0 {
			x.opts.Stats.Inc("replay_check")
			v = replayCheck(x.sc, x.opts, out)
		}
		if v == nil && x.opts.Crash != nil {
			x.opts.Stats.Inc("crash_check")
			v = crashCheck(x.sc, x.opts, out)
		}
	}
	if v != nil {
		x.report(v, out)
	}
}

// markTried records src's covering decisions in x.tried.
func (x *explorer) markTried(src *Source) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if x.tried == nil {
		x.tried = make(map[string][]bool)
	}
	for _, d := range src.covering {
		if len(x.tried[d.Site]) < d.N {
			x.tried[d.Site] = append(x.tried[d.Site], make([]bool, d.N-len(x.tried[d.Site]))...)
		}
		x.tried[d.Site][d.Pick] = true
	}
}

// report finalizes a violation: shrink, persist, localize, record.
func (x *explorer) report(v *Violation, out schedOut) {
	v.Scenario = x.sc.Name
	v.Trace = out.trace.clone()
	v.RawLen = len(out.trace)
	if x.opts.Shrink && v.Kind != KindStall {
		// Stalls are not shrunk: every still-failing probe would park
		// another goroutine on the watchdog's floor.
		v.Trace = shrink(v.Trace, x.failsLike(v), x.opts.ShrinkBudget, x.opts.Stats)
	}
	if x.opts.SeedDir != "" {
		path, err := persistSeed(x.opts.SeedDir, x.sc.Name, v.Kind, len(x.res.Violations), v.Trace)
		if err != nil {
			v.Detail += fmt.Sprintf(" (seed persist failed: %v)", err)
		} else {
			v.SeedFile = path
			x.opts.Stats.Inc("seed_persisted")
		}
	}
	if v.Kind == KindDeterminism {
		v.SpanDiff = spanDiff(x.sc, x.opts, v.Trace)
	}
	x.opts.Stats.Inc("violation")
	x.res.Violations = append(x.res.Violations, v)
}

// failsLike builds the shrinker's predicate: does replaying tr reproduce
// a violation of v's kind?
func (x *explorer) failsLike(v *Violation) func(Trace) bool {
	return func(tr Trace) bool {
		out := runSchedule(x.sc, newSource(tr, nil, x.opts.MaxDecisions), x.opts, nil, nil)
		switch v.Kind {
		case KindError:
			return out.err != nil && !out.stalled &&
				(x.sc.TolerateError == nil || !x.sc.TolerateError(out.err))
		case KindDeterminism:
			return !out.stalled && out.err == nil && x.haveRef && out.fp != x.refFP
		case KindReplay:
			if out.stalled || out.err != nil || out.script == nil || out.script.Len() == 0 {
				return false
			}
			return replayCheck(x.sc, x.opts, out) != nil
		case KindCrash:
			if out.stalled || out.err != nil {
				return false
			}
			return crashCheck(x.sc, x.opts, out) != nil
		}
		return false
	}
}

// schedOut is one executed schedule.
type schedOut struct {
	fp      uint64
	err     error
	stalled bool
	over    bool
	trace   Trace
	script  *task.MergeScript
}

// runSchedule executes one schedule of sc driven by src, under the
// bounded-progress watchdog. tracer, when non-nil, records the run's span
// tree. replay, when non-nil, forces the recorded MergeAny picks through
// the production replay path instead of the decision stream (the MergeAny
// cross-check).
func runSchedule(sc Scenario, src *Source, opts Options, tracer *obs.Tracer, replay *task.MergeScript) schedOut {
	env := &Env{src: src, size: opts.Size, script: task.NewMergeScript()}
	if replay != nil {
		env.script, env.replaying = replay, true
		replay.Rewind()
	}
	ch := make(chan schedOut, 1)
	go func() {
		out := schedOut{script: env.script}
		defer func() {
			if r := recover(); r != nil {
				out.err = fmt.Errorf("explore: scenario panicked: %v", r)
			}
			env.runDeferred()
			out.trace, out.over = src.snapshot()
			ch <- out
		}()
		fn, data := sc.Build(env)
		out.err = task.RunWith(task.RunConfig{Decider: env, Obs: tracer, History: env.history}, fn, data...)
		if out.err == nil {
			out.fp = fingerprintOf(sc, data)
		}
	}()
	if opts.StallTimeout <= 0 {
		return <-ch
	}
	last := src.progress.Load()
	for {
		select {
		case out := <-ch:
			return out
		case <-time.After(opts.StallTimeout):
			cur := src.progress.Load()
			if cur == last {
				// The schedule's goroutine is abandoned, not killed — Go
				// has no cancellation for a genuinely wedged runtime, and
				// that wedge is exactly what is being reported.
				tr, over := src.snapshot()
				return schedOut{stalled: true, trace: tr, over: over}
			}
			last = cur
		}
	}
}

func fingerprintOf(sc Scenario, data []mergeable.Mergeable) uint64 {
	if sc.Fingerprint != nil {
		return sc.Fingerprint(data)
	}
	return Fingerprint(data...)
}

// replayCheck re-runs the schedule with the recorded MergeAny picks
// forced through the production replay path (task.MergeScript) and
// holds the outcome to the live one — the executable form of "a MergeAny
// result is the result of some sequential pick order".
func replayCheck(sc Scenario, opts Options, out schedOut) *Violation {
	src := newSource(out.trace, nil, opts.MaxDecisions)
	re := runSchedule(sc, src, opts, nil, out.script)
	switch {
	case re.stalled:
		return &Violation{Kind: KindReplay, Detail: "replaying the recorded pick order stalled"}
	case re.err != nil:
		return &Violation{Kind: KindReplay, Detail: "replaying the recorded pick order failed", Err: re.err}
	case re.fp != out.fp:
		return &Violation{
			Kind:        KindReplay,
			Detail:      fmt.Sprintf("replay of recorded pick order gave %016x, live schedule gave %016x", re.fp, out.fp),
			Fingerprint: re.fp,
			Want:        out.fp,
		}
	}
	return nil
}

// spanDiff localizes a determinism violation as an obs span-tree diff
// between the baseline schedule and the violating trace.
func spanDiff(sc Scenario, opts Options, tr Trace) []string {
	base, bad := obs.New(), obs.New()
	if out := runSchedule(sc, newSource(nil, nil, opts.MaxDecisions), opts, base, nil); out.err != nil || out.stalled {
		return nil
	}
	if out := runSchedule(sc, newSource(tr, nil, opts.MaxDecisions), opts, bad, nil); out.err != nil || out.stalled {
		return nil
	}
	diff := obs.Diff(base.Tree(), bad.Tree())
	const maxLines = 16
	if len(diff) > maxLines {
		diff = append(diff[:maxLines:maxLines], fmt.Sprintf("... %d more", len(diff)-maxLines))
	}
	return diff
}

// ReplayTrace re-runs sc under a decision trace and re-evaluates the
// schedule's invariants, returning the violation it reproduces (nil for a
// clean replay). refFP, when known (haveRef), anchors the determinism
// check; pass haveRef=false to skip it.
func ReplayTrace(sc Scenario, tr Trace, opts Options) (*Violation, error) {
	o, err := opts.normalized(sc)
	if err != nil {
		return nil, err
	}
	x := &explorer{sc: sc, opts: o, res: &Result{Scenario: sc.Name, Outcomes: make(map[uint64]int)}}
	if sc.Deterministic {
		// Establish the reference from the all-default baseline.
		base := runSchedule(sc, newSource(nil, nil, o.MaxDecisions), o, nil, nil)
		if base.err != nil || base.stalled {
			return nil, fmt.Errorf("explore: baseline schedule failed: stalled=%v err=%v", base.stalled, base.err)
		}
		x.haveRef, x.refFP = true, base.fp
	}
	// Disable shrinking and persistence: a replay reports, it does not
	// re-minimize.
	x.opts.Shrink = false
	x.opts.SeedDir = ""
	before := len(x.res.Violations)
	x.runOne(newSource(tr, nil, o.MaxDecisions), &randomWalk{})
	if len(x.res.Violations) > before {
		return x.res.Violations[len(x.res.Violations)-1], nil
	}
	return nil, nil
}

// SortedOutcomes renders Outcomes as fingerprint×count, ascending by
// fingerprint, for reports.
func (r *Result) SortedOutcomes() []string {
	fps := make([]uint64, 0, len(r.Outcomes))
	for fp := range r.Outcomes {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	out := make([]string, len(fps))
	for i, fp := range fps {
		out[i] = fmt.Sprintf("%016x×%d", fp, r.Outcomes[fp])
	}
	return out
}
