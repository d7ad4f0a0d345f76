package task

import (
	"sync"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/stats"
)

// HistoryGC tunes the incremental op-log garbage collector. The zero value
// is the default behavior: eager trimming at every merge point, exactly as
// if no knob existed.
type HistoryGC struct {
	// Disable turns history trimming off entirely. Results are identical —
	// compaction never changes a merge outcome, which the differential
	// compaction tests pin — but committed histories grow without bound, so
	// this exists for those tests and for the soak harness's unbounded
	// reference runs, not for production.
	Disable bool
	// Slack defers a trim until at least Slack operations would drop,
	// amortizing the retained-suffix copy on high-frequency sync loops.
	// Zero trims eagerly.
	Slack int
	// Stats, when non-nil, receives the compaction counter family:
	// compaction.log.trims, compaction.log.ops_dropped,
	// compaction.log.child_trims, compaction.log.child_ops_dropped.
	Stats *stats.Counters
	// Spans, when set (and RunConfig.Obs is non-nil), emits a
	// obs.KindCompact span on a dedicated "gc:<path>" track for every trim
	// pass that dropped operations. Off by default: trim timing for a task
	// with clones in flight depends on registration races that never affect
	// results, so gc spans are excluded from span-determinism checks.
	Spans bool
}

// RunConfig bundles every optional runtime hook. The zero value is a
// plain Run, and every field is independent of the others.
type RunConfig struct {
	// MaxParallel, when > 0, bounds simultaneous task execution — footnote
	// 2 of the paper: tasks need not map one-to-one onto threads but "may
	// also be scheduled to be executed on a pool of threads". Tasks hold an
	// execution slot only while running user code; every blocking point of
	// the merge protocol releases it, so any bound preserves both progress
	// and the determinism guarantees (results are identical to Run's).
	MaxParallel int
	// Obs receives hierarchical runtime spans when non-nil: every spawn,
	// merge (with nested per-structure transform and apply phases), sync
	// and abort. For a deterministic program the span tree is identical
	// across runs and GOMAXPROCS settings, durations aside (see package
	// obs). With Obs nil the spawn/merge hot path pays nothing — no
	// allocations, no atomic traffic.
	Obs *obs.Tracer
	// Decider steers and observes every MergeAny / MergeAnyFromSet pick
	// when non-nil (see Decider). A *MergeScript is rewound first, so one
	// script can drive repeated replays.
	Decider Decider
	// OnRootMerge observes the root's data after each root-level merge
	// (the journal's checkpoint cadence).
	OnRootMerge RootMergeHook
	// History tunes the op-log garbage collector; the zero value trims
	// eagerly (the default since the runtime existed).
	History HistoryGC
}

// RootMergeHook observes the root task's data after each of its merges.
// It is invoked on the root goroutine — the only mutator of the root
// structures — with the merge's ordinal (1-based, deterministic under
// replay), so implementations may read the structures freely but must not
// retain references past the call. The journal's checkpoint writer is the
// intended implementation.
type RootMergeHook func(data []mergeable.Mergeable, rootMerges int)

// runFrame is the pooled per-Run allocation unit: the tree runtime, the
// root task and the shells of every task the run spawns all live here and
// are reused by later Runs. Handles returned by Spawn are valid for the
// duration of their Run; once Run returns, the frame may be recycled and
// the handles with it (reading Err/Merged from a stale handle remains
// memory-safe, but observes a later run once the frame is reused).
type runFrame struct {
	rt   treeRuntime
	root Task
	// data backs the root's working set, copied from Run's variadic so the
	// caller-side argument slice does not escape.
	data []mergeable.Mergeable
	// shells is the freelist of child task shells; used counts how many
	// are handed out in the current run. Guarded by mu (spawns race).
	mu     sync.Mutex
	shells []*Task
	used   int
}

var framePool = sync.Pool{New: func() any { return new(runFrame) }}

// getFrame takes a frame from the pool and resets its runtime for a new
// run. Fields are cleared one by one: treeRuntime embeds atomics, so a
// struct assignment would copy locks.
func getFrame() *runFrame {
	f := framePool.Get().(*runFrame)
	rt := &f.rt
	rt.nextID.Store(0)
	rt.decider = nil
	rt.randSeed = 0
	rt.onRootMerge = nil
	rt.rootMerges = 0
	rt.slots = nil
	rt.obs = nil
	rt.gcDisable = false
	rt.gcSlack = 0
	rt.gcStats = nil
	rt.gcSpans = false
	rt.frame = f
	return f
}

// putFrame scrubs user-data references out of the frame and returns it to
// the pool. Every task of the finished run is quiescent by now: the root
// collected all children before run() returned, and a child's last action
// is its readiness announcement, which the root consumed.
func putFrame(f *runFrame) {
	for _, s := range f.shells[:f.used] {
		s.scrub()
	}
	f.used = 0
	f.root.scrub()
	clear(f.data)
	f.data = f.data[:0]
	framePool.Put(f)
}

// initRoot seats the run's working set and root task in the frame.
func initRoot(f *runFrame, fn Func, data []mergeable.Mergeable) *Task {
	f.data = append(f.data[:0], data...)
	return initTask(&f.root, nil, fn, f.data, nil, nil, nil, &f.rt)
}

// RunWith executes fn as the root task of a new task tree with the given
// configuration; see Run for the core semantics.
func RunWith(cfg RunConfig, fn Func, data ...mergeable.Mergeable) error {
	if s, ok := cfg.Decider.(*MergeScript); ok {
		s.Rewind()
	}
	f := getFrame()
	rt := &f.rt
	rt.decider = cfg.Decider
	rt.onRootMerge = cfg.OnRootMerge
	rt.obs = cfg.Obs
	rt.gcDisable = cfg.History.Disable
	rt.gcSlack = cfg.History.Slack
	rt.gcStats = cfg.History.Stats
	rt.gcSpans = cfg.History.Spans
	if cfg.MaxParallel > 0 {
		rt.slots = make(chan struct{}, cfg.MaxParallel)
	}
	root := initRoot(f, fn, data)
	root.run()
	err := root.err
	putFrame(f)
	return err
}

// Run executes fn as the root task of a new task tree, on the calling
// goroutine, and returns when fn and every task it spawned have completed
// and been merged. The structures in data are the root's working set: Run
// operates on them directly, so after Run returns they hold the final,
// fully merged state.
//
// A program whose tasks only use MergeAll/MergeAllFromSet (and whose Funcs
// are themselves deterministic) produces identical results on every Run,
// on any number of cores — the paper's headline guarantee. Determinism is
// surrendered exactly where MergeAny/MergeAnyFromSet is chosen.
func Run(fn Func, data ...mergeable.Mergeable) error {
	f := getFrame()
	root := initRoot(f, fn, data)
	root.run()
	err := root.err
	putFrame(f)
	return err
}
