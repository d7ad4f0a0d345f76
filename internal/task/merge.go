package task

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/ot"
)

// Condition is a post-condition evaluated against a preview of the merge
// result (Section II.D): copies of the parent structures with the child's
// transformed operations applied, in the child's data order (positions
// bound to one parent structure share one copy, holding all of them).
// Returning false rejects the merge — the child's changes are discarded, a
// rollback that (unlike transactional memory) only ever happens because
// the application said so, never because of write-write conflicts.
type Condition func(preview []mergeable.Mergeable) bool

// MergeOption configures a merge call.
type MergeOption func(*mergeConfig)

type mergeConfig struct {
	cond Condition
}

// WithCondition attaches a post-condition to a merge call. It applies to
// every child merged by that call.
func WithCondition(cond Condition) MergeOption {
	return func(c *mergeConfig) { c.cond = cond }
}

// evalCondition runs a user condition function, treating a panic as a
// rejection: a crashing validator must not take down the merging parent,
// and "could not validate" safely degrades to "do not accept".
func evalCondition(cond Condition, preview []mergeable.Mergeable) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return cond(preview)
}

// zeroMergeConfig is the shared config for option-less merge calls — the
// overwhelmingly common case. Merge paths only ever read the config, so
// sharing one instance is safe and keeps MergeAll allocation-free.
var zeroMergeConfig mergeConfig

func applyOptions(opts []MergeOption) *mergeConfig {
	if len(opts) == 0 {
		return &zeroMergeConfig
	}
	cfg := &mergeConfig{}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// mergeScratch bundles the per-merge working memory: the transformed-ops
// result table, the OT transform arena and the pending-chain map for
// aliased positions. Pooled and reused across merges, which is what keeps
// a steady-state no-surprise merge allocation-free.
type mergeScratch struct {
	transformed [][]ot.Op
	ot          ot.MergeScratch
	pending     map[mergeable.Mergeable][]ot.Op
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// releaseMergeScratch clears the scratch's references (so pooled entries
// pin neither operations nor structures) and returns it to the pool. The
// arena reset invalidates every transform window handed out this merge;
// callers must have committed (copied) them already.
func releaseMergeScratch(ms *mergeScratch) {
	clear(ms.transformed)
	ms.ot.Reset()
	if ms.pending != nil {
		clear(ms.pending)
	}
	mergeScratchPool.Put(ms)
}

// transformChild computes the child's transformed contribution for every
// data position: transformed[i] is c.data[i]'s outgoing operations
// compacted (adjacent pops and appends collapse into ranges, which shrinks
// the quadratic transform and the parent's history growth) and rewritten to
// apply after the parent history the child has not seen. A position the
// child did not write costs one version comparison and stays nil. Positions
// are independent except in an aliased child (see Task.aliased), where a
// later position also transforms against the earlier positions'
// still-pending results on the same parent structure — they will have been
// applied by the time its own operations are.
//
// The transform runs inline on the merging goroutine: a merge typically
// carries a handful of operations on a handful of positions, less work
// than handing any of it to another goroutine (DESIGN.md, "why the merge
// is inline").
//
// durs, when non-nil (tracing on), receives each written position's
// transform time; it must have length len(c.parentData). The result table
// and the transform windows are carved from ms and stay valid until the
// scratch is released, which the caller does once the merge has committed
// them.
func transformChild(c *Task, ms *mergeScratch, durs []time.Duration) [][]ot.Op {
	n := len(c.parentData)
	transformed := ms.transformed
	if cap(transformed) < n {
		transformed = make([][]ot.Op, n)
	} else {
		// Entries up to cap were nil'ed when their merge released the
		// scratch, so the reslice needs no clearing.
		transformed = transformed[:n]
	}
	ms.transformed = transformed
	for i, pm := range c.parentData {
		cl := c.data[i].Log()
		if cl.CommittedLen() == c.floors[i] {
			continue
		}
		var start time.Time
		if durs != nil {
			start = time.Now()
		}
		server := pm.Log().CommittedSince(c.bases[i])
		if c.aliased {
			if prior := ms.pending[pm]; len(prior) > 0 {
				merged := make([]ot.Op, 0, len(server)+len(prior))
				merged = append(merged, server...)
				merged = append(merged, prior...)
				server = merged
			}
		}
		childOps := ot.CompactSeq(cl.CommittedSince(c.floors[i]))
		transformed[i] = ms.ot.TransformAgainst(childOps, server)
		if c.aliased && len(transformed[i]) > 0 {
			if ms.pending == nil {
				ms.pending = make(map[mergeable.Mergeable][]ot.Op)
			}
			ms.pending[pm] = append(ms.pending[pm], transformed[i]...)
		}
		if durs != nil {
			durs[i] = time.Since(start)
		}
	}
	return transformed
}

// bindsAlias reports whether some structure is bound at more than one
// position of a child's data set. Spawn decides it once per child; the
// usual handful of structures is scanned pairwise, a wide binding pays for
// a map.
func bindsAlias(parents []mergeable.Mergeable) bool {
	if len(parents) <= 64 {
		for i := 1; i < len(parents); i++ {
			for _, q := range parents[:i] {
				if parents[i] == q {
					return true
				}
			}
		}
		return false
	}
	seen := make(map[mergeable.Mergeable]struct{}, len(parents))
	for _, m := range parents {
		if _, dup := seen[m]; dup {
			return true
		}
		seen[m] = struct{}{}
	}
	return false
}

// mergeSet waits for and merges the given children in slice order. Skips
// children that were already collected (merged completions).
func (t *Task) mergeSet(tasks []*Task, cfg *mergeConfig) error {
	var errs []error
	for _, c := range tasks {
		if c.merged {
			continue
		}
		t.awaitQuiescent(c)
		if err := t.mergeChild(c, cfg); err != nil {
			errs = append(errs, err)
		}
	}
	t.trimHistories()
	return errors.Join(errs...)
}

// mergeAnyDynamic waits for the first of t's children — including ones
// registered while waiting, e.g. clones — to become quiescent and merges
// only it, unless the run's decider forces the pick.
func (t *Task) mergeAnyDynamic(cfg *mergeConfig) (*Task, error) {
	d := t.runtime.decider
	var c *Task
	if d != nil {
		live := t.liveChildren()
		if len(live) == 0 {
			return nil, ErrNothingToMerge
		}
		var err error
		if c, err = t.forcedPick(d, live, false); err != nil {
			return nil, err
		}
	}
	if c == nil {
		if len(t.pendingList) > 0 {
			c = t.pendingList[0]
			t.pendingList = t.pendingList[1:]
		} else {
			if !t.hasLiveChildren() {
				// No children exist, so none can appear either (only
				// children clone): never block on the empty set (§IV.B).
				return nil, ErrNothingToMerge
			}
			c = t.recvReady()
		}
	}
	if d != nil {
		d.Picked(t.spanTrack(), c.seq)
	}
	err := t.mergeChild(c, cfg)
	t.trimHistories()
	return c, err
}

// mergeAny waits for the first of the given children to become quiescent
// and merges only it, unless the run's decider forces the pick.
func (t *Task) mergeAny(tasks []*Task, cfg *mergeConfig) (*Task, error) {
	live := make(map[*Task]bool, len(tasks))
	for _, c := range tasks {
		if !c.merged {
			live[c] = true
		}
	}
	if len(live) == 0 {
		return nil, ErrNothingToMerge
	}
	d := t.runtime.decider
	var c *Task
	if d != nil {
		var err error
		if c, err = t.forcedPick(d, sortedBySeq(live), true); err != nil {
			return nil, err
		}
	}
	if c == nil {
		c = t.awaitAny(live)
	}
	if d != nil {
		d.Picked(t.spanTrack(), c.seq)
	}
	err := t.mergeChild(c, cfg)
	t.trimHistories()
	return c, err
}

// awaitQuiescent blocks until child c has announced quiescence (completed
// or blocked in Sync). Announcements from other children are queued.
func (t *Task) awaitQuiescent(c *Task) {
	for i, q := range t.pendingList {
		if q == c {
			t.pendingList = append(t.pendingList[:i], t.pendingList[i+1:]...)
			return
		}
	}
	for {
		q := t.recvReady()
		if q == c {
			return
		}
		t.pendingList = append(t.pendingList, q)
	}
}

// awaitAny blocks until some child in set announces quiescence, in arrival
// order (first-completed-first-merged, the paper's explicit
// non-determinism).
func (t *Task) awaitAny(set map[*Task]bool) *Task {
	for i, q := range t.pendingList {
		if set[q] {
			t.pendingList = append(t.pendingList[:i], t.pendingList[i+1:]...)
			return q
		}
	}
	for {
		q := t.recvReady()
		if set[q] {
			return q
		}
		t.pendingList = append(t.pendingList, q)
	}
}

// mergeChild folds one quiescent child into the parent's structures. This
// is the heart of the system: the child's local operations are transformed
// against the suffix of each structure's committed history the child has
// not seen (operational transformation serializes the concurrent
// operations), applied, and committed. A failed, aborted or
// condition-rejected child contributes nothing.
//
// The returned error reports failures the parent did not choose: the
// child's own error or a condition rejection. Externally aborted children
// merge silently.
// adoptPins pins c's base versions on its parent structures' logs. Spawn
// leaves pinning to the parent (the child's bases are covered by the
// spawner's own live pins until then — for a clone, by the cloning
// sibling's) so pins are only ever touched from the goroutine that owns
// the logs. Called before any merge of c and before any trim pass that
// observes c live; idempotent via c.pinned. A clone that has not synced
// yet is skipped: its bases are inherited, its copies placeholders, and the
// refresh of its first Sync pins the base it actually gets.
func (t *Task) adoptPins(c *Task) {
	if c.pinned || c.unsynced {
		return
	}
	for i, pm := range c.parentData {
		pm.Log().Pin(c.bases[i])
	}
	c.pinned = true
}

// trackHistory adds m to t's history-tracking set. Callers first check the
// log's tracker token (Tracker() != t), which short-circuits re-insertion:
// fanning many children over the same data set pays one append per
// structure total, not per spawn.
func (t *Task) trackHistory(m mergeable.Mergeable) {
	t.tracked = append(t.tracked, m)
	m.Log().SetTracker(t)
}

// dropPins releases c's base pins when the parent reaps it.
func (t *Task) dropPins(c *Task) {
	if !c.pinned {
		return
	}
	for i, pm := range c.parentData {
		pm.Log().Unpin(c.bases[i])
	}
	c.pinned = false
}

func (t *Task) mergeChild(c *Task, cfg *mergeConfig) error {
	t.adoptPins(c)
	if t.parent == nil && t.runtime.onRootMerge != nil {
		// Root-merge observation for the journal's checkpoint cadence: the
		// hook runs on the root goroutine once this merge has fully landed
		// (including the resume handshake of a synced child), so it may
		// read the root structures without racing anything.
		defer func() {
			t.runtime.rootMerges++
			t.runtime.onRootMerge(t.data, t.runtime.rootMerges)
		}()
	}
	// Open the merge span before any merge work. Identity (track position,
	// child name) is fixed here; the outcome and op count land in End. The
	// child is quiescent, so reading/caching its track from the parent
	// goroutine is ordered by the quiescence announcement.
	tr := t.runtime.obs
	var mtrack string
	var mseq int
	var mstart time.Time
	if tr != nil {
		mstart = time.Now()
		mtrack = t.spanTrack()
		mseq = tr.Begin(mtrack, obs.KindMerge, c.spanTrack())
	}

	ph := phase(c.phase.Load())
	aborted := c.abortFlag.Load()
	failed := ph == phaseCompleted && c.err != nil

	var reportErr error
	discard := aborted || failed
	if failed && !aborted {
		reportErr = fmt.Errorf("task %d: %w", c.id, c.err)
	}

	// Always flush local operations into the committed histories first:
	// the parent's so version numbers cover everything a refreshed copy
	// will contain, the child's so its committed history holds its full
	// contribution in application order (its own operations interleaved
	// with those merged in from its children). The same pass detects a
	// child that contributed nothing — the no-op fan-out shape — with one
	// version comparison per position, so such merges skip the transform
	// machinery entirely.
	contributed := false
	for i, pm := range c.parentData {
		pm.Log().FlushLocal()
		cl := c.data[i].Log()
		cl.FlushLocal()
		if !contributed && cl.CommittedLen() != c.floors[i] {
			contributed = true
		}
	}

	appliedOps := 0
	if !discard {
		// transformed is nil when the child contributed nothing; the
		// preview and apply steps then see empty contributions.
		var transformed [][]ot.Op
		if contributed {
			ms := mergeScratchPool.Get().(*mergeScratch)
			defer releaseMergeScratch(ms)
			// With tracing on, transformChild fills per-position durations;
			// one transform span per position, in position order.
			var tdurs []time.Duration
			if tr != nil {
				tdurs = make([]time.Duration, len(c.parentData))
			}
			transformed = transformChild(c, ms, tdurs)
			if tr != nil {
				for i := range transformed {
					tr.Emit(mtrack, obs.KindTransform, "s"+strconv.Itoa(i), mseq, int64(len(transformed[i])), tdurs[i])
				}
			}
		}
		opsAt := func(i int) []ot.Op {
			if transformed == nil {
				return nil
			}
			return transformed[i]
		}

		if cfg.cond != nil {
			preview := make([]mergeable.Mergeable, len(c.parentData))
			for i, pm := range c.parentData {
				var pv mergeable.Mergeable
				if c.aliased {
					// Positions bound to one parent structure preview one copy:
					// the later position's operations were transformed to apply
					// after the earlier one's.
					for j, qm := range c.parentData[:i] {
						if qm == pm {
							pv = preview[j]
							break
						}
					}
				}
				if pv == nil {
					pv = pm.CloneValue()
				}
				if err := pv.ApplyRemote(opsAt(i)); err != nil {
					panic(fmt.Sprintf("task: merge preview failed, transformation invariant broken: %v", err))
				}
				preview[i] = pv
			}
			if !evalCondition(cfg.cond, preview) {
				discard = true
				reportErr = fmt.Errorf("task %d: %w", c.id, ErrMergeRejected)
			}
		}

		if !discard && transformed != nil {
			for i, pm := range c.parentData {
				var astart time.Time
				if tr != nil {
					astart = time.Now()
				} else if len(transformed[i]) == 0 {
					// Nothing to apply or commit. With tracing on the position
					// still gets its (empty) apply span.
					continue
				}
				if err := pm.ApplyRemote(transformed[i]); err != nil {
					panic(fmt.Sprintf("task: merge failed, transformation invariant broken: %v", err))
				}
				pm.Log().Commit(transformed[i])
				appliedOps += len(transformed[i])
				if tr != nil {
					tr.Emit(mtrack, obs.KindApply, "s"+strconv.Itoa(i), mseq, int64(len(transformed[i])), time.Since(astart))
				}
			}
		}
	}

	if tr != nil {
		outcome := "merged"
		switch {
		case aborted:
			outcome = "aborted"
		case failed:
			outcome = "failed"
		case discard:
			outcome = "rejected"
		}
		tr.End(mtrack, mseq, c.spanTrack()+" "+outcome, int64(appliedOps), mstart)
	}

	if ph == phaseCompleted {
		switch {
		case aborted && c.err == nil:
			c.err = ErrAborted
		case discard && !failed && !aborted && c.err == nil:
			c.err = ErrMergeRejected // condition rejection
		}
		c.merged = true
		// The child's working copies are dead: their histories will never
		// be consulted again, so trim them to nothing and recycle the log
		// states into the shared pool. Recycle is a checked no-op for any
		// log that still holds something (e.g. a never-synced stale clone).
		for _, m := range c.data {
			lg := m.Log()
			lg.Trim(lg.CommittedLen())
			lg.Recycle()
		}
		t.dropPins(c)
		t.reap(c)
		return reportErr
	}

	// The child is blocked in Sync. Refresh its copies from the parent's
	// current state and resume it with the merge outcome.
	var resumeErr error
	switch {
	case aborted:
		resumeErr = ErrAborted
	case discard:
		resumeErr = ErrMergeRejected
	}
	for i, pm := range c.parentData {
		// Whether merged or dismissed, the parent has now consumed the
		// child's contribution up to here.
		cl := c.data[i].Log()
		wrote := cl.CommittedLen() != c.floors[i]
		c.floors[i] = cl.CommittedLen()
		if aborted {
			continue
		}
		lg := pm.Log()
		nb := lg.CommittedLen()
		// Refresh only what moved. A copy the child has not written since
		// its last refresh still equals the parent at the child's base, and
		// a parent still at that base has not changed either (every mutation
		// commits at least one operation), so the copy already is what
		// AdoptFrom would make it: a Sync costs the structures either side
		// touched, not the whole data set. A clone's first Sync always
		// refreshes — its copies are placeholders.
		if wrote || nb != c.bases[i] || c.unsynced {
			if err := c.data[i].AdoptFrom(pm); err != nil {
				panic(fmt.Sprintf("task: refresh failed: %v", err))
			}
			cl.ClearStale()
		}
		if c.pinned {
			lg.MovePin(c.bases[i], nb)
		} else {
			// A clone's first Sync: this is the first base it holds for real.
			// The log may have lost its last pin (and with it its place in
			// the tracking set) while the clone held none.
			lg.Pin(nb)
			if lg.Tracker() != t {
				t.trackHistory(pm)
			}
		}
		c.bases[i] = nb
	}
	if !aborted {
		c.pinned, c.unsynced = true, false
	}
	if !t.runtime.gcDisable {
		// The parent has consumed the child's contribution up to the floor
		// and the child — quiescent, with all grandchildren collected — will
		// never transform below it again. Trimming here is what keeps a
		// long-lived sync-heavy leaf child's own history bounded: its copies
		// are refreshed in place, so no other trim point ever sees them.
		dropped := 0
		for i, m := range c.data {
			dropped += m.Log().Trim(c.floors[i])
		}
		if dropped > 0 && t.runtime.gcStats != nil {
			t.runtime.gcStats.Inc("compaction.log.child_trims")
			t.runtime.gcStats.Add("compaction.log.child_ops_dropped", int64(dropped))
		}
	}
	c.resume <- resumeMsg{err: resumeErr}
	if resumeErr != nil && errors.Is(resumeErr, ErrMergeRejected) {
		return reportErr
	}
	return nil
}

// trimHistories drops committed history that neither a live child's base
// version nor the upward-propagation floor still needs. Long-running
// programs (the network simulation syncs thousands of times) would
// otherwise accumulate unbounded operation logs.
//
// The pass is driven entirely by the base pins the runtime maintains on
// each tracked log (see Log.Pin): pins of just-registered clones are
// adopted first, each log's transient trim mark is seeded at its pin
// watermark, lowered by this task's own floors, and consumed by
// TrimToMark. No maps, no allocation — the old per-call min-version maps
// were the last allocating step on the merge path.
func (t *Task) trimHistories() {
	if len(t.tracked) == 0 || t.runtime.gcDisable {
		return
	}
	var start time.Time
	tr := t.runtime.obs
	if tr != nil && t.runtime.gcSpans {
		start = time.Now()
	}
	live := t.liveChildren()
	if len(live) == 0 && t.parent == nil {
		// Root with every child collected: nothing pins any history, so
		// trim everything and drop the tracking set without the mark passes
		// below. This is the tail of every fan-out. With the history gone
		// and the tracker cleared the log state is fully empty, so it is
		// recycled into the state pool — the next fan-out (or the next Run)
		// picks it up instead of allocating.
		dropped := 0
		for i, m := range t.tracked {
			lg := m.Log()
			dropped += lg.Trim(lg.CommittedLen())
			if lg.Tracker() == t {
				lg.SetTracker(nil)
			}
			lg.Recycle()
			t.tracked[i] = nil
		}
		t.tracked = t.tracked[:0]
		t.noteTrim(dropped, start)
		return
	}
	// Clones register their bases from the cloning sibling's goroutine and
	// cannot pin the parent's logs themselves; adopt any not-yet-pinned
	// child before computing watermarks, so its base holds history down.
	for _, c := range live {
		t.adoptPins(c)
	}
	for _, m := range t.tracked {
		m.Log().ResetTrimMark()
	}
	// History at or after this task's own floor must survive too: it is
	// this task's not-yet-propagated contribution to its parent. The root
	// has no parent to propagate to, so it is exempt.
	if t.parent != nil {
		for i, m := range t.data {
			if lg := m.Log(); lg.Tracker() == t {
				lg.LowerTrimMark(t.floors[i])
			}
		}
	}
	dropped := 0
	keep := t.tracked[:0]
	for _, m := range t.tracked {
		lg := m.Log()
		dropped += lg.TrimToMark(t.runtime.gcSlack)
		// A pinned log is some live child's parent structure and stays
		// tracked; an unpinned one has no live reference and is released.
		if lg.Pinned() {
			keep = append(keep, m)
			continue
		}
		// Keep the tracker-token invariant: clear it only if it is
		// still ours (another task may have started tracking since).
		if lg.Tracker() == t {
			lg.SetTracker(nil)
		}
	}
	// keep compacted in place; nil out the dropped tail so the backing
	// array does not pin untracked structures.
	for i := len(keep); i < len(t.tracked); i++ {
		t.tracked[i] = nil
	}
	t.tracked = keep
	t.noteTrim(dropped, start)
}

// noteTrim reports one trim pass's dropped-op count to the compaction
// counters and, when opted in, as a KindCompact span on a dedicated
// "gc:<path>" track (dedicated because trim timing for a task with clones
// in flight depends on registration races that never affect results —
// span-determinism checks filter gc tracks out).
func (t *Task) noteTrim(dropped int, start time.Time) {
	if dropped == 0 {
		return
	}
	if st := t.runtime.gcStats; st != nil {
		st.Inc("compaction.log.trims")
		st.Add("compaction.log.ops_dropped", int64(dropped))
	}
	if tr := t.runtime.obs; tr != nil && t.runtime.gcSpans {
		tr.Emit("gc:"+t.spanTrack(), obs.KindCompact, "trim", -1, int64(dropped), time.Since(start))
	}
}
