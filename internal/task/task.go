// Package task implements the paper's primary contribution: the Spawn &
// Merge runtime for deterministic synchronization of multi-threaded
// programs.
//
// An executing program is a tree of tasks. Spawn creates a child task that
// receives deep copies of selected mergeable data structures and runs
// concurrently — no memory is shared, so data races are impossible by
// construction. Merge folds a child's recorded operations back into the
// parent's structures using operational transformation (package ot), in an
// order chosen by the parent:
//
//   - MergeAll / MergeAllFromSet merge deterministically, in creation or
//     argument order. Programs that only use these are deterministic.
//   - MergeAny / MergeAnyFromSet merge on a first-completed basis and are
//     the explicit escape hatch for intentional non-determinism (servers,
//     interactive programs).
//
// Sync lets a long-running child merge intermediate results and continue on
// a fresh copy; Clone creates a sibling task (the blocking-accept pattern);
// Abort marks a child's changes as unwanted. Because the wait graph is the
// task tree and the only parent↔child cycle (Merge vs. Sync) is resolved by
// performing the merge, deadlocks are impossible (Section IV.B).
package task

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Func is the body of a task. It receives the task's context and its
// working copies of the data structures passed to Spawn, in the same
// order. A non-nil return marks the task failed: its changes are discarded
// when the parent merges it.
//
// A Func must only touch the structures it received (or ones it created) —
// capturing a parent's structure in the closure would reintroduce shared
// memory, which is exactly what Spawn & Merge exists to prevent.
type Func func(ctx *Ctx, data []mergeable.Mergeable) error

// phase describes why a task became quiescent.
type phase int32

const (
	phaseRunning phase = iota
	phaseSyncing
	phaseCompleted
)

// resumeMsg is the parent's answer to a child blocked in Sync.
type resumeMsg struct {
	err error // nil, ErrAborted or ErrMergeRejected
}

// Task is a node of the task tree. The creating task receives it as a
// handle; only the exported methods are safe to call from other tasks.
type Task struct {
	id     uint64
	seq    uint64 // creation order among siblings
	parent *Task
	fn     Func

	// Working copies this task operates on, and the parent structures they
	// were copied from (same order). For the root task, data are the
	// structures passed to Run and parentData is nil.
	data       []mergeable.Mergeable
	parentData []mergeable.Mergeable
	// bases[i] is the version of parentData[i]'s committed history this
	// task's copy is based on. floors[i] is the version of data[i]'s own
	// committed history the parent has already consumed: a task's full
	// contribution at merge time is its copy's committed history since the
	// floor (which includes operations merged in from its own children)
	// plus its trailing local operations. Both are written at spawn/clone
	// time and by the parent during merges (while the task is quiescent).
	bases  []int
	floors []int

	// Child management (this task acting as a parent).
	mu       sync.Mutex
	children []*Task // live (unreaped) children, creation order
	nextSeq  uint64
	ready    chan *Task // children announce quiescence here
	// pendingList queues quiescent children not yet merged, in arrival
	// order. tracked remembers structures handed to children, for history
	// trimming (a slice, not a map: the log's tracker token already
	// deduplicates, so membership tests never happen). Both are touched
	// only by this task's own goroutine.
	pendingList []*Task
	tracked     []mergeable.Mergeable
	// snapBuf backs liveChildren snapshots; reused across calls, valid
	// until the next snapshot on the same task.
	snapBuf []*Task

	// Quiescence handshake (this task acting as a child).
	phase  atomic.Int32
	resume chan resumeMsg

	// Result and flags.
	err       error
	merged    bool // reaped by the parent
	abortFlag atomic.Bool
	// pinned reports whether this task's base versions are pinned on its
	// parent structures' logs. The parent adopts pins lazily — at its first
	// trim pass or merge that observes the child — because clones register
	// from the cloning sibling's goroutine, which must not touch the
	// parent's logs. Only the parent's goroutine reads or writes it, always
	// before any trim of the histories the pins protect.
	pinned bool
	// unsynced marks a clone that has not completed its first Sync. Its
	// copies are stale placeholders it cannot write, so nothing it holds was
	// derived from a parent version and no transform can ever need history
	// below its base: it pins nothing until the refresh of that first Sync
	// gives it real copies and a real base. Written by Clone before the task
	// is registered, afterwards only by the parent's goroutine.
	unsynced bool
	// aliased reports whether some parent structure is bound at more than
	// one data position (Spawn(f, x, x)) — the one case where positions of a
	// merge depend on each other. parentData never changes, so Spawn decides
	// it once and a clone inherits its sibling's answer; every merge of a
	// child with distinct positions then skips the chaining bookkeeping.
	aliased bool
	// rng is the lazily created task-local deterministic random source
	// (see Ctx.Rand).
	rng *rand.Rand
	// track caches path() for span emission and the decider. It is
	// written only from goroutines whose accesses to this task are already
	// ordered by the runtime's channels (the task's own goroutine, or the
	// parent while the task is quiescent), and only when tracing is enabled
	// or a decider is installed.
	track string

	runtime *treeRuntime

	// ctx is the task's own Ctx, embedded so run() hands user code a
	// pointer into the task instead of allocating one per task.
	ctx Ctx

	// dataBuf and bfBuf are shell-owned backing arrays for the spawn-time
	// copies and the fused bases/floors array. They belong to the shell,
	// not the run: when a pooled frame reuses this shell for a later task,
	// the buffers are reused too (see runFrame).
	dataBuf []mergeable.Mergeable
	bfBuf   []int
}

// spanTrack returns the task's stable span track (its creation path),
// cached after the first computation. Only called when tracing is on or a
// decider is installed.
func (t *Task) spanTrack() string {
	if t.track == "" {
		t.track = t.path()
	}
	return t.track
}

// treeRuntime holds process-wide state shared by a task tree.
type treeRuntime struct {
	nextID atomic.Uint64
	// decider steers and observes the MergeAny picks when non-nil (see
	// Decider); its Yield runs at every blocking point.
	decider Decider
	// randSeed is the base seed for the task-local deterministic random
	// sources (see Ctx.Rand / Ctx.SeedRand).
	randSeed uint64
	// onRootMerge, when non-nil, observes the root's data after each of
	// the root task's merges (see RootMergeHook). rootMerges counts them;
	// both are touched only on the root goroutine.
	onRootMerge RootMergeHook
	rootMerges  int
	// slots bounds how many tasks execute simultaneously when non-nil
	// (footnote 2 of the paper: "tasks may also be scheduled to be
	// executed on a pool of threads"). A task holds a slot while running
	// user code and releases it across every blocking point — Sync waits,
	// merge waits and completion — so a bounded pool can never deadlock
	// the merge protocol.
	slots chan struct{}
	// obs, when non-nil, receives hierarchical spans for every runtime
	// event (see package obs). Every hook site checks for nil first, so a
	// run without a tracer pays nothing on the spawn/merge hot path.
	obs *obs.Tracer
	// History-GC tuning, copied from RunConfig.History (see HistoryGC).
	gcDisable bool
	gcSlack   int
	gcStats   *stats.Counters
	gcSpans   bool
	// frame is the pooled run frame this runtime belongs to, nil when the
	// runtime was built by hand (tests). It owns the task-shell freelist.
	frame *runFrame
}

// getShell hands out a task shell: a recycled one from the frame's
// freelist when available, a fresh allocation otherwise. Shells handed out
// during a run are returned to the freelist only when the whole run ends
// (putFrame), so a handle stays valid for the entire Run that created it.
// Spawns may race from several goroutines; the freelist has its own lock.
func (rt *treeRuntime) getShell() *Task {
	f := rt.frame
	if f == nil {
		return &Task{}
	}
	f.mu.Lock()
	var t *Task
	if f.used < len(f.shells) {
		t = f.shells[f.used]
	} else {
		t = &Task{}
		f.shells = append(f.shells, t)
	}
	f.used++
	f.mu.Unlock()
	return t
}

// acquire takes an execution slot (no-op without a pool).
func (rt *treeRuntime) acquire() {
	if rt.decider != nil {
		rt.decider.Yield()
	}
	if rt.slots != nil {
		rt.slots <- struct{}{}
	}
}

// release returns an execution slot (no-op without a pool).
func (rt *treeRuntime) release() {
	if rt.slots != nil {
		<-rt.slots
	}
}

// ID returns the task's unique identifier within its Run.
func (t *Task) ID() uint64 { return t.id }

// Abort marks the task externally aborted (Section II.F). The task keeps
// running until it notices — its next Sync returns ErrAborted — but
// whatever it produces is discarded at merge time. Abort never blocks and
// is safe to call from the parent at any time.
func (t *Task) Abort() {
	t.abortFlag.Store(true)
	if tr := t.runtime.obs; tr != nil {
		// Abort may be called from any goroutine, so the span goes on a
		// dedicated per-target track (not the caller's or the target's own
		// track, whose program order it is not part of). path() is computed
		// fresh — the cross-goroutine caller must not touch the cache.
		tr.Emit("abort:"+t.path(), obs.KindAbort, "flagged", -1, 0, 0)
	}
}

// Aborted reports whether the task was marked externally aborted.
func (t *Task) Aborted() bool { return t.abortFlag.Load() }

// Err returns the task's recorded error. It is meaningful once the task
// has been merged by its parent; nil means the task completed and its
// changes were merged.
func (t *Task) Err() error { return t.err }

// Merged reports whether the task has completed and been collected by its
// parent. It must only be called from the parent task's goroutine (the
// same discipline as the Merge functions themselves).
func (t *Task) Merged() bool { return t.merged }

// newTask builds a task node. data are the working copies; parentData the
// parent structures they pair with (nil for the root).
func newTask(parent *Task, fn Func, data, parentData []mergeable.Mergeable, bases, floors []int, rt *treeRuntime) *Task {
	return initTask(rt.getShell(), parent, fn, data, parentData, bases, floors, rt)
}

// initTask (re)initializes a task shell for a new life. Shells come from a
// run frame's freelist (see runFrame) and carry reusable capacity — the
// ready/resume channels, the children/pending/tracked backing arrays and
// the spawn-copy buffers — all of which are kept; everything run-specific
// is reset here.
func initTask(t *Task, parent *Task, fn Func, data, parentData []mergeable.Mergeable, bases, floors []int, rt *treeRuntime) *Task {
	// ready and resume are created lazily — ready when the first child is
	// registered, resume on the first Sync — so leaf tasks (the common
	// case in wide fan-outs) allocate neither. Spawn passes floors fused
	// into the bases allocation; the root never consults its floors, so
	// only non-root callers that pass nil pay an allocation here.
	if floors == nil && parent != nil {
		floors = make([]int, len(data))
	}
	t.id = rt.nextID.Add(1)
	t.seq = 0
	t.parent = parent
	t.fn = fn
	t.data = data
	t.parentData = parentData
	t.bases = bases
	t.floors = floors
	t.children = t.children[:0]
	t.nextSeq = 0
	t.pendingList = t.pendingList[:0]
	t.tracked = t.tracked[:0]
	t.phase.Store(int32(phaseRunning))
	t.err = nil
	t.merged = false
	t.abortFlag.Store(false)
	t.pinned = false
	t.unsynced = false
	t.aliased = false
	t.rng = nil
	t.track = ""
	t.runtime = rt
	t.ctx.task = t
	return t
}

// scrub drops every reference a retired shell holds into user data so a
// pooled frame does not pin structures or closures between runs. The
// result fields (err, merged, abortFlag) survive on purpose: handles
// returned by Spawn stay readable until the frame is actually reused.
func (t *Task) scrub() {
	t.parent = nil
	t.fn = nil
	t.data = nil
	t.parentData = nil
	t.bases = nil
	t.floors = nil
	clear(t.children)
	t.children = t.children[:0]
	clear(t.pendingList)
	t.pendingList = t.pendingList[:0]
	clear(t.tracked)
	t.tracked = t.tracked[:0]
	clear(t.snapBuf)
	t.snapBuf = t.snapBuf[:0]
	t.rng = nil
	clear(t.dataBuf)
}

// registerChild appends c to t's live children. Called by the spawning
// goroutine: the parent itself for Spawn, a child for Clone. The child's
// goroutine is started only after registration, so it observes t.ready.
func (t *Task) registerChild(c *Task) {
	t.mu.Lock()
	if t.ready == nil {
		// Buffered so quiescent children usually announce without parking:
		// on wide fan-outs an unbuffered channel costs a scheduler
		// round-trip per child, which dominates no-op merges on few cores.
		// Arrival order (= merge order for MergeAny) is the channel's FIFO
		// send order either way.
		t.ready = make(chan *Task, 32)
	}
	c.seq = t.nextSeq
	t.nextSeq++
	t.children = append(t.children, c)
	t.mu.Unlock()
}

// liveChildren snapshots the live children in creation order. The
// snapshot reuses a per-task buffer: it stays valid until the next
// liveChildren call on the same task, which every caller satisfies (no
// caller holds a snapshot across a nested snapshot — merges iterate it,
// then re-snapshot on the next round).
func (t *Task) liveChildren() []*Task {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snapBuf = append(t.snapBuf[:0], t.children...)
	return t.snapBuf
}

// hasLiveChildren reports whether any live child exists, without the
// snapshot copy liveChildren makes.
func (t *Task) hasLiveChildren() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.children) > 0
}

// recvReady blocks until a child announces quiescence, releasing this
// task's execution slot for the duration so a bounded pool keeps making
// progress while the parent waits.
func (t *Task) recvReady() *Task {
	// Read the lazily created channel under the registration lock: a clone
	// registering a sibling from another goroutine may have just created
	// it. Callers only reach here after observing a live child, so the
	// channel exists.
	t.mu.Lock()
	ready := t.ready
	t.mu.Unlock()
	t.runtime.release()
	q := <-ready
	t.runtime.acquire()
	return q
}

// Task-runner reuse. Spawning is the framework's per-task constant cost
// (Section III measures it), and goroutine creation is a visible slice of
// it on fan-out-heavy programs. Finished runners park on runnerJobs and
// pick up the next task body instead of exiting; when no runner is parked,
// the task gets a fresh goroutine exactly as before. The pool only ever
// holds goroutines that once ran a task, so its size is bounded by the
// peak task concurrency. Semantics are unchanged: each task body still
// runs on its own goroutine, never interleaved with another body.
// runnerJobs is unbuffered on purpose: a send must only succeed when a
// runner is already parked on the receive, otherwise a task could sit in
// a buffer with no goroutine destined to execute it.
var runnerJobs = make(chan *Task)

// startTask hands c to a parked runner, or starts a new one.
func startTask(c *Task) {
	select {
	case runnerJobs <- c:
	default:
		go runnerLoop(c)
	}
}

func runnerLoop(c *Task) {
	c.run()
	for next := range runnerJobs {
		next.run()
	}
}

// reap removes a completed, merged child from the live list.
func (t *Task) reap(c *Task) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, x := range t.children {
		if x == c {
			t.children = append(t.children[:i], t.children[i+1:]...)
			break
		}
	}
}

// run executes the task body on the current goroutine, performs the
// implicit MergeAll of Section II.D ("whenever a task that still has
// running child tasks finishes MergeAll is called implicitly") and
// announces completion to the parent.
func (t *Task) run() {
	ctx := &t.ctx // embedded: no per-task Ctx allocation
	t.runtime.acquire()
	t.execBody(ctx)

	if t.err != nil {
		// A failed task cannot accept its children's changes — its own
		// copies are about to be dismissed. Abort them so they unwind.
		for _, c := range t.liveChildren() {
			c.Abort()
		}
	}
	// Merge (or discard) every remaining child, including tasks cloned
	// while the loop runs, so the subtree is fully collected before the
	// parent observes completion.
	for t.hasLiveChildren() {
		if err := ctx.MergeAll(); err != nil && t.err == nil {
			t.err = err
		}
	}

	if t.parent == nil {
		t.runtime.release()
		return // root: Run returns t.err
	}
	t.phase.Store(int32(phaseCompleted))
	t.runtime.release()
	if t.runtime.decider != nil {
		t.runtime.decider.Yield()
	}
	t.parent.ready <- t // may block until the parent drains announcements
}

// execBody runs the task function under the panic guard.
func (t *Task) execBody(ctx *Ctx) {
	defer func() {
		if r := recover(); r != nil {
			t.err = PanicError{Value: r}
		}
	}()
	t.err = t.fn(ctx, t.data)
}

// enterSync blocks the calling (child) goroutine until the parent merges
// it, then reports the merge outcome. See Ctx.Sync.
//
// Per Section II.E, Sync is equivalent to completing the task and spawning
// a new one right after the merge — and completing a task implies merging
// its own children first. enterSync therefore collects the task's live
// children before announcing quiescence; this is also what keeps the
// operation bookkeeping sound (a refresh while grandchild bases point into
// the old copy state would corrupt the transformation).
func (t *Task) enterSync() error {
	if t.parent == nil {
		return ErrRootSync
	}
	tr := t.runtime.obs
	var syncStart time.Time
	if tr != nil {
		syncStart = time.Now()
	}
	var childErr error
	for t.hasLiveChildren() {
		if err := t.mergeSet(t.liveChildren(), &zeroMergeConfig); err != nil && childErr == nil {
			childErr = err
		}
	}
	if t.resume == nil {
		// Created on first Sync, before announcing quiescence: the parent
		// reads the field only after receiving the announcement.
		t.resume = make(chan resumeMsg)
	}
	t.phase.Store(int32(phaseSyncing))
	t.runtime.release() // do not hold an execution slot while blocked
	if t.runtime.decider != nil {
		t.runtime.decider.Yield()
	}
	t.parent.ready <- t
	msg := <-t.resume
	t.runtime.acquire()
	t.phase.Store(int32(phaseRunning))
	if tr != nil {
		// Emitted from the task's own goroutine after the parent resumed
		// it, so the span sits at its deterministic position on this task's
		// track. The duration covers pre-merge child collection plus the
		// wait for the parent — the full Sync cost as the task experiences
		// it.
		name := "merged"
		if msg.err != nil {
			switch msg.err {
			case ErrAborted:
				name = "aborted"
			case ErrMergeRejected:
				name = "rejected"
			default:
				name = "error"
			}
		}
		tr.Emit(t.spanTrack(), obs.KindSync, name, -1, 0, time.Since(syncStart))
	}
	if msg.err != nil {
		return msg.err
	}
	return childErr
}
