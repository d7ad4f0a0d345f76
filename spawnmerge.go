// Package repro is Spawn & Merge: deterministic synchronization of
// multi-threaded programs with operational transformation, a from-scratch
// Go implementation of Boelmann, Schwittmann and Weis (IPDPSW 2014).
//
// # The model
//
// A program is a tree of tasks. Spawn forks a child task that receives
// deep copies of selected mergeable data structures — no memory is shared,
// so data races cannot exist. Every structure records the operations
// applied to it; Merge folds a child's operations back into the parent
// using operational transformation, so merging always succeeds (no aborts,
// no retries). Programs that merge with the deterministic MergeAll /
// MergeAllFromSet produce identical results on every run and any core
// count; MergeAny / MergeAnyFromSet introduce non-determinism exactly
// where the programmer asks for it. Deadlocks are impossible: the wait
// graph is the task tree, and its only cycle (parent merging, child
// syncing) resolves by performing the merge.
//
// # Quick start
//
// The paper's Listing 1 — parent and child append to one list without
// locks, the merge interleaves them deterministically:
//
//	list := repro.NewList(1, 2, 3)
//	err := repro.Run(func(ctx *repro.Ctx, data []repro.Mergeable) error {
//		l := data[0].(*repro.List[int])
//		t := ctx.Spawn(func(ctx *repro.Ctx, data []repro.Mergeable) error {
//			data[0].(*repro.List[int]).Append(5)
//			return nil
//		}, l)
//		l.Append(4)
//		return ctx.MergeAllFromSet([]*repro.Task{t})
//	}, list)
//	// list is now [1 2 3 4 5] — on every run.
//
// The runnable programs under examples/ cover the paper's server software
// (Listing 3), the network simulation (Listing 4), collaborative text
// editing and the Section IV.A semaphore construction.
//
// This facade re-exports the implementation packages internal/task
// (runtime), internal/mergeable (data structures) and internal/ot
// (transformation engine).
package repro

import (
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/journal"
	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/task"
)

// Core runtime types, re-exported from internal/task.
type (
	// Ctx is a task's view of itself: Spawn, Clone, Sync and the four
	// Merge flavors live here.
	Ctx = task.Ctx
	// Task is the handle a parent holds for a spawned child.
	Task = task.Task
	// Func is a task body.
	Func = task.Func
	// MergeOption configures a merge call (see WithCondition).
	MergeOption = task.MergeOption
	// Condition validates a merge preview (Section II.D's post-condition).
	Condition = task.Condition
	// PanicError wraps a panic recovered from a task body.
	PanicError = task.PanicError
	// Trace collects merge decisions from RunTraced.
	Trace = task.Trace
	// MergeEvent is one recorded merge decision.
	MergeEvent = task.MergeEvent
	// MergeScript records/replays non-deterministic merge picks.
	MergeScript = task.MergeScript
)

// Mergeable data structures, re-exported from internal/mergeable.
type (
	// Mergeable is the interface between structures and the runtime;
	// implement it to add custom mergeable structures.
	Mergeable = mergeable.Mergeable
	// Log is the operation log embedded in every structure.
	Log = mergeable.Log
	// List is a mergeable ordered sequence.
	List[T any] = mergeable.List[T]
	// Queue is a mergeable FIFO queue.
	Queue[T any] = mergeable.Queue[T]
	// Map is a mergeable key-value map.
	Map[K comparable, V any] = mergeable.Map[K, V]
	// Set is a mergeable mathematical set.
	Set[K comparable] = mergeable.Set[K]
	// Register is a mergeable single-value cell.
	Register[T any] = mergeable.Register[T]
	// Counter is a mergeable integer counter.
	Counter = mergeable.Counter
	// Text is a mergeable text buffer.
	Text = mergeable.Text
	// Tree is a mergeable ordered tree.
	Tree = mergeable.Tree
)

// Runtime sentinel errors, re-exported from internal/task.
var (
	// ErrAborted is observed by an externally aborted task at its next Sync.
	ErrAborted = task.ErrAborted
	// ErrMergeRejected reports that a merge condition discarded the changes.
	ErrMergeRejected = task.ErrMergeRejected
	// ErrNothingToMerge is returned by MergeAny without live children.
	ErrNothingToMerge = task.ErrNothingToMerge
	// ErrNotChild guards the tree-shaped wait discipline.
	ErrNotChild = task.ErrNotChild
	// ErrRootSync is returned when the root task calls Sync.
	ErrRootSync = task.ErrRootSync
)

// Run executes fn as the root task and returns once the whole task tree
// has completed and merged. See task.Run.
func Run(fn Func, data ...Mergeable) error { return task.Run(fn, data...) }

// RunPooled is Run with task execution bounded to maxParallel
// simultaneous tasks (the paper's thread-pool scheduling, footnote 2).
// Results are identical to Run's; only the scheduling changes.
func RunPooled(maxParallel int, fn Func, data ...Mergeable) error {
	return task.RunPooled(maxParallel, fn, data...)
}

// RunTraced is Run with merge tracing: every merge decision is recorded
// into the returned Trace. Deterministic programs produce identical
// per-parent traces on every run, so two traces can be diffed to localize
// a divergence.
func RunTraced(fn Func, data ...Mergeable) (*Trace, error) {
	return task.RunTraced(fn, data...)
}

// NewMergeScript returns an empty script for RunRecording.
func NewMergeScript() *MergeScript { return task.NewMergeScript() }

// RunRecording is Run that records every non-deterministic merge decision
// (MergeAny / MergeAnyFromSet) into script, so RunReplaying can reproduce
// the execution exactly.
func RunRecording(script *MergeScript, fn Func, data ...Mergeable) error {
	return task.RunRecording(script, fn, data...)
}

// RunReplaying is Run with the non-deterministic merge decisions forced
// to follow a recorded script, reproducing that execution bit for bit.
func RunReplaying(script *MergeScript, fn Func, data ...Mergeable) error {
	return task.RunReplaying(script, fn, data...)
}

// WithCondition attaches a post-condition to a merge call.
func WithCondition(cond Condition) MergeOption { return task.WithCondition(cond) }

// Observability layer, re-exported from internal/obs.
type (
	// Tracer collects hierarchical runtime spans (see RunObserved). For a
	// deterministic program the span tree is identical across runs and
	// core counts, durations aside.
	Tracer = obs.Tracer
	// Span is one recorded runtime event.
	Span = obs.Span
	// SpanTree is a tracer's spans frozen into canonical, comparable form
	// (Fingerprint, Render, obs.Diff).
	SpanTree = obs.Tree
	// MetricsRegistry exports counters and latency histograms over expvar
	// (/debug/vars) and the Prometheus text format (/metrics).
	MetricsRegistry = obs.Registry
	// RunConfig bundles every optional runtime hook for RunWith.
	RunConfig = task.RunConfig
)

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return obs.New() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DiffSpanTrees reports the identity divergences between two span trees,
// ignoring durations — empty for trees of equal fingerprint. Diffing a
// failing run against a known-good one localizes where behavior forked.
func DiffSpanTrees(a, b *SpanTree) []string { return obs.Diff(a, b) }

// RunObserved is Run with span tracing: every spawn, merge (with nested
// per-structure transform/apply phases), sync and abort in the task tree
// is recorded into tracer. See internal/obs for the determinism
// guarantees of the resulting span tree.
func RunObserved(tracer *Tracer, fn Func, data ...Mergeable) error {
	return task.RunObserved(tracer, fn, data...)
}

// RunWith executes fn with an explicit hook configuration — the general
// form behind Run, RunPooled, RunTraced, RunRecording, RunReplaying and
// RunObserved, for callers combining several hooks at once.
func RunWith(cfg RunConfig, fn Func, data ...Mergeable) error {
	return task.RunWith(cfg, fn, data...)
}

// Journal sentinel errors, re-exported from internal/journal. Classify
// with errors.Is.
var (
	// ErrJournalCorrupt reports journal damage recovery cannot repair
	// (mid-file CRC mismatch, undecodable record, inconsistent
	// checkpoint). A corrupt journal must not be resumed.
	ErrJournalCorrupt = journal.ErrCorrupt
	// ErrJournalTornTail reports an incomplete final WAL record — the
	// benign signature of a killed process. Resume truncates it and
	// recovers everything before it.
	ErrJournalTornTail = journal.ErrTornTail
	// ErrNoJournaledRun reports a directory with nothing to resume: no
	// journal, or one that died before the inputs became durable. Start
	// the run from scratch with RunJournaled.
	ErrNoJournaledRun = journal.ErrNoRun
	// ErrJournalDiverged reports that a resumed run did not retrace the
	// journaled one — the program changed, or it harbors non-determinism
	// the merge script does not capture.
	ErrJournalDiverged = journal.ErrDiverged
)

// journalOptions wires the journal to the dist codec registry: durable
// snapshots use the same per-structure codecs as the cluster wire format.
func journalOptions() journal.Options {
	return journal.Options{Encode: dist.EncodeSnapshot, Decode: dist.DecodeSnapshot}
}

// RunJournaled is Run with crash recovery: the initial snapshots of data
// are made durable in dir before fn starts, every committed MergeAny /
// MergeAnyFromSet pick is written ahead of its merge, and checkpoints of
// the root structures land periodically. If the process dies — kill -9
// included — Resume(dir, fn) reproduces the interrupted run exactly and
// carries it to completion.
//
// Every structure in data needs a registered dist codec (for example
// dist.RegisterListCodec); built-ins Counter and Text are pre-registered.
// dir must not already contain a journal.
func RunJournaled(dir string, fn Func, data ...Mergeable) error {
	return journal.Run(dir, journalOptions(), fn, data...)
}

// Resume recovers the journaled run in dir and re-executes fn over the
// recovered inputs with the journaled picks forced, returning the final
// structures (in the order they were passed to RunJournaled). The
// replayed prefix is bit-identical to the interrupted run — checkpoint
// fingerprints are verified along the way — and execution continues live
// past the crash point, still journaled, so an interrupted Resume is
// itself resumable. Resuming a journal whose run already completed
// replays and verifies it, returning the same final state.
func Resume(dir string, fn Func) ([]Mergeable, error) {
	return journal.Resume(dir, journalOptions(), fn)
}

// Schedule exploration, re-exported from internal/explore. The explorer
// seizes every sanctioned nondeterminism source — MergeAny picks, faultnet
// chaos, journal crash points — behind one seeded decision stream and
// checks the paper's invariants on every explored schedule. See
// internal/explore and cmd/explore.
type (
	// ExploreScenario is one program under exploration.
	ExploreScenario = explore.Scenario
	// ExploreEnv is a schedule's decision-stream view, handed to Build.
	ExploreEnv = explore.Env
	// ExploreOptions configures an exploration.
	ExploreOptions = explore.Options
	// ExploreResult summarizes one.
	ExploreResult = explore.Result
	// ExploreViolation is one schedule that broke an invariant.
	ExploreViolation = explore.Violation
	// ExploreStrategy selects random-walk or bounded-exhaustive search.
	ExploreStrategy = explore.Strategy
	// ExploreCrashCheck configures crash-point exploration.
	ExploreCrashCheck = explore.CrashCheck
)

// Exploration strategies.
const (
	ExploreRandomWalk = explore.RandomWalk
	ExploreExhaustive = explore.Exhaustive
)

// Explore walks sc's schedule space under opts, checking determinism,
// MergeAny replay soundness, progress and (optionally) crash-resume
// equivalence on every schedule. Failing schedules are shrunk to minimal
// decision traces when opts.Shrink is set.
func Explore(sc ExploreScenario, opts ExploreOptions) (*ExploreResult, error) {
	return explore.Run(sc, opts)
}

// ExploreCrashCodecs returns a CrashCheck wired to the dist codec
// registry — the same snapshot codecs RunJournaled uses — so callers only
// fill in the sweep shape (Points, Dir).
func ExploreCrashCodecs() *ExploreCrashCheck {
	return &ExploreCrashCheck{Encode: dist.EncodeSnapshot, Decode: dist.DecodeSnapshot}
}

// ReplayExploreSeed re-runs a persisted counterexample seed file against
// sc and reports the violation it reproduces (nil if it no longer fails).
func ReplayExploreSeed(path string, sc ExploreScenario, opts ExploreOptions) (*ExploreViolation, error) {
	return explore.ReplaySeed(path, sc, opts)
}

// NewList returns a mergeable list holding vals.
func NewList[T any](vals ...T) *List[T] { return mergeable.NewList(vals...) }

// NewQueue returns a mergeable FIFO queue holding vals front-to-back.
func NewQueue[T any](vals ...T) *Queue[T] { return mergeable.NewQueue(vals...) }

// NewMap returns an empty mergeable map.
func NewMap[K comparable, V any]() *Map[K, V] { return mergeable.NewMap[K, V]() }

// NewSet returns a mergeable set holding vals.
func NewSet[K comparable](vals ...K) *Set[K] { return mergeable.NewSet(vals...) }

// NewRegister returns a mergeable register initialized to v.
func NewRegister[T any](v T) *Register[T] { return mergeable.NewRegister(v) }

// NewCounter returns a mergeable counter initialized to v.
func NewCounter(v int64) *Counter { return mergeable.NewCounter(v) }

// NewText returns a mergeable text buffer initialized with s.
func NewText(s string) *Text { return mergeable.NewText(s) }

// NewTree returns a mergeable tree whose root holds rootValue.
func NewTree(rootValue any) *Tree { return mergeable.NewTree(rootValue) }
