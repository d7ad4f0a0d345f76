package task

import (
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/mergeable"
	"repro/internal/obs"
)

// Ctx is a task's view of itself. It is handed to the task's Func and must
// only be used from that task's own goroutine — handing it to another task
// would break the tree-shaped wait discipline that makes the system
// deadlock-free.
type Ctx struct {
	task *Task
}

// ID returns the identifier of the calling task.
func (c *Ctx) ID() uint64 { return c.task.id }

// Data returns the calling task's working copies (the same slice its Func
// received).
func (c *Ctx) Data() []mergeable.Mergeable { return c.task.data }

// Path returns the calling task's stable identity: the chain of
// per-parent creation sequence numbers from the root (e.g. "r/0/2").
// Unlike ID, the path is identical across runs of the same program, which
// is what merge scripts and the journal key their records by.
func (c *Ctx) Path() string { return c.task.path() }

// Aborted reports whether the parent marked this task externally aborted.
// Long computations without Sync points can poll it to unwind early.
func (c *Ctx) Aborted() bool { return c.task.abortFlag.Load() }

// Rand returns a pseudo-random source that is deterministic per task:
// seeded from the task's stable creation path (and the seed passed to the
// root via SeedRand, default 0). The paper's footnote 1 excludes
// Random()-style non-determinism from its guarantees; tasks that take
// their randomness from Rand stay inside them — same program, same seeds,
// same results on every run.
//
// The source is task-local and must not be shared with other tasks.
func (c *Ctx) Rand() *rand.Rand {
	t := c.task
	if t.rng == nil {
		h := fnv.New64a()
		h.Write([]byte(t.path()))
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(t.runtime.randSeed >> (8 * i))
		}
		h.Write(buf[:])
		t.rng = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	return t.rng
}

// SeedRand sets the base seed all task-local Rand sources derive from.
// Call it from the root task before spawning; different seeds give
// different (but each internally deterministic) executions.
func (c *Ctx) SeedRand(seed uint64) { c.task.runtime.randSeed = seed }

// Spawn creates a child task executing fn on deep copies of data, made at
// call time — the semantics of call-by-value that Section II.C describes.
// The child runs concurrently; Spawn returns its handle immediately. The
// parent must eventually merge the child with one of the Merge functions
// (or rely on the implicit MergeAll when the parent's Func returns).
func (c *Ctx) Spawn(fn Func, data ...mergeable.Mergeable) *Task {
	p := c.task
	rt := p.runtime
	tr := rt.obs
	var spawnStart time.Time
	if tr != nil {
		spawnStart = time.Now()
	}
	n := len(data)
	// The copies, the parent-structure bindings and the fused bases/floors
	// array all live in buffers owned by the child shell: respawning from a
	// pooled frame reuses them, and copying data out of the variadic slice
	// keeps the caller's argument slice from escaping.
	child := rt.getShell()
	buf := child.dataBuf
	if cap(buf) < 2*n {
		buf = make([]mergeable.Mergeable, 2*n)
	} else {
		buf = buf[:2*n]
	}
	child.dataBuf = buf
	copies, parents := buf[:n:n], buf[n:]
	copy(parents, data)
	bf := child.bfBuf
	if cap(bf) < 2*n {
		bf = make([]int, 2*n)
	} else {
		bf = bf[:2*n]
	}
	child.bfBuf = bf
	bases, floors := bf[:n:n], bf[n:]
	clear(floors) // reused backing: floors must start at zero
	for i, m := range parents {
		lg := m.Log()
		if lg.Stale() {
			// A clone's placeholder belongs to no parent version, so nothing
			// based on it could be merged soundly — and the clone holds no
			// pin on the history such a merge would transform against.
			panic("task: Spawn over stale data; a cloned task must call Sync() before using its data")
		}
		// Flush the parent's local operations into the committed history so
		// the child's base version covers everything in its copy.
		lg.FlushLocal()
		bases[i] = lg.CommittedLen()
		copies[i] = m.CloneValue()
		if lg.Tracker() != p {
			p.trackHistory(m)
		}
	}
	initTask(child, p, fn, copies, parents, bases, floors, rt)
	child.aliased = bindsAlias(parents)
	p.registerChild(child)
	if tr != nil {
		// Named by the child's stable path; the duration covers the deep
		// copies (the framework's per-spawn constant cost, Section III).
		// Emitted before startTask so the span exists before the child runs.
		tr.Emit(p.spanTrack(), obs.KindSpawn, child.spanTrack(), -1, int64(n), time.Since(spawnStart))
	}
	startTask(child)
	return child
}

// Clone creates a sibling of the calling task running fn (Section II.E).
// It exists for the blocking-accept pattern: a child that blocks on I/O
// clones itself to handle each accepted connection, and the shared parent
// merges the clones with MergeAny.
//
// The clone receives placeholder copies of the caller's data set. As the
// paper notes, that inherited value "will most likely be outdated", so the
// copies are marked stale: the clone must call Sync() — which refreshes
// them from the parent — before touching them. Until that first Sync the
// clone pins none of the parent's history (a clone that never syncs, like
// an accept loop, never holds it down). Values that are not mergeable data
// (sockets, request payloads) travel into fn as closure captures.
//
// Clone panics when called on the root task, which has no parent to attach
// a sibling to.
func (c *Ctx) Clone(fn Func) *Task {
	t := c.task
	p := t.parent
	if p == nil {
		panic("task: the root task cannot Clone itself")
	}
	tr := t.runtime.obs
	var cloneStart time.Time
	if tr != nil {
		cloneStart = time.Now()
	}
	n := len(t.data)
	sib := t.runtime.getShell()
	buf := sib.dataBuf
	if cap(buf) < 2*n {
		buf = make([]mergeable.Mergeable, 2*n)
	} else {
		buf = buf[:2*n]
	}
	sib.dataBuf = buf
	copies, parents := buf[:n:n], buf[n:]
	copy(parents, t.parentData)
	for i, m := range t.data {
		cp := m.CloneValue()
		cp.Log().MarkStale()
		copies[i] = cp
	}
	bf := sib.bfBuf
	if cap(bf) < 2*n {
		bf = make([]int, 2*n)
	} else {
		bf = bf[:2*n]
	}
	sib.bfBuf = bf
	bases, floors := bf[:n:n], bf[n:]
	copy(bases, t.bases)
	clear(floors)
	initTask(sib, p, fn, copies, parents, bases, floors, t.runtime)
	sib.unsynced = true
	sib.aliased = t.aliased
	p.registerChild(sib)
	if tr != nil {
		// The span goes on the cloning task's own track (the clone caller is
		// the single writer here, not the parent the sibling attaches to).
		tr.Emit(t.spanTrack(), obs.KindSpawn, "clone "+sib.spanTrack(), -1, int64(len(copies)), time.Since(cloneStart))
	}
	startTask(sib)
	return sib
}

// Sync blocks until the parent merges this task (Section II.E). It is
// equivalent to completing the task and spawning a fresh one: the task's
// operations since the last sync are merged into the parent, and the
// task's copies are refreshed from the parent's current state.
//
// Sync returns nil on a successful merge, ErrMergeRejected when the
// parent's condition function discarded the changes (the copies are still
// refreshed), ErrAborted when the parent marked this task externally
// aborted (the task should unwind), and ErrRootSync on the root task.
func (c *Ctx) Sync() error { return c.task.enterSync() }

// MergeAll waits for every live child to complete or reach a Sync point
// and merges them in creation order — deterministically (Section II.D).
// Synced children are resumed on fresh copies; completed children are
// collected. Children spawned or cloned while MergeAll runs are not part
// of its snapshot and are handled by the next merge call.
//
// The returned error aggregates the errors of children that failed on
// their own (task errors and condition rejections); externally aborted
// children are discarded silently, since the abort was this task's choice.
func (c *Ctx) MergeAll(opts ...MergeOption) error {
	p := c.task
	return p.mergeSet(p.liveChildren(), applyOptions(opts))
}

// MergeAllFromSet waits for and merges exactly the given children,
// deterministically in argument order (Section II.D). It returns
// ErrNotChild if a task is not a live child of the caller; already
// collected children are skipped.
func (c *Ctx) MergeAllFromSet(tasks []*Task, opts ...MergeOption) error {
	p := c.task
	for _, t := range tasks {
		if t.parent != p {
			return ErrNotChild
		}
	}
	return p.mergeSet(tasks, applyOptions(opts))
}

// MergeAny waits for the first child to complete or reach a Sync point and
// merges only it — explicitly non-deterministic (Section II.D). The wait
// is dynamic: children cloned while MergeAny blocks count too, which is
// what the Listing 3 server pattern relies on (the root blocks in MergeAny
// while the accept task clones connection handlers). It returns the merged
// child's handle, or ErrNothingToMerge when no live child exists (it never
// blocks on an empty set; see Section IV.B).
func (c *Ctx) MergeAny(opts ...MergeOption) (*Task, error) {
	return c.task.mergeAnyDynamic(applyOptions(opts))
}

// MergeAnyFromSet is MergeAny restricted to the given children. MergeAny
// is the special case covering all live children.
func (c *Ctx) MergeAnyFromSet(tasks []*Task, opts ...MergeOption) (*Task, error) {
	p := c.task
	for _, t := range tasks {
		if t.parent != p {
			return nil, ErrNotChild
		}
	}
	return p.mergeAny(tasks, applyOptions(opts))
}
