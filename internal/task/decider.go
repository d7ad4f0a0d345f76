package task

import (
	"cmp"
	"fmt"
	"slices"
)

// Decider is the run's one hook on its non-determinism. A program built
// from Spawn & Merge leaves exactly one choice open — which child a
// MergeAny / MergeAnyFromSet call merges — and everything that steers or
// captures that choice implements this interface: a MergeScript records
// and replays it, the journal makes it durable, the schedule explorer
// (internal/explore) enumerates it. RunConfig.Decider installs one; with
// none, every pick is first-completed.
type Decider interface {
	// Pick is consulted on the merging parent's goroutine with the
	// parent's stable path and the creation sequence numbers of the
	// candidate children, in ascending order: the live children at call
	// time for MergeAny, the unmerged members of the set for
	// MergeAnyFromSet. Returning ok=true forces that child — the parent
	// waits for it even if another candidate finishes first — and
	// ok=false falls back to first-completed. A MergeAnyFromSet pick must
	// name a candidate; a MergeAny pick may also name a child cloned while
	// the parent waits. A pick the merge cannot honour fails it with
	// ErrBadPick instead of blocking.
	Pick(parentPath string, candidates []uint64) (childSeq uint64, ok bool)
	// Picked observes every committed pick, forced or first-completed,
	// once the child is quiescent and before its merge applies. Per
	// parent path the calls arrive in merge order.
	Picked(parentPath string, childSeq uint64)
	// Yield is called at every blocking point of the merge protocol:
	// harnesses perturb schedules there or pulse a stall watchdog.
	Yield()
}

// forcedPick asks the decider for the next pick among cand (live children
// in ascending seq order) and waits for the child it names. fromSet marks
// a MergeAnyFromSet, whose pick must be one of cand; a dynamic MergeAny
// may pick a clone still to come. It returns nil, nil when the decider
// declines.
func (t *Task) forcedPick(d Decider, cand []*Task, fromSet bool) (*Task, error) {
	seqs := make([]uint64, len(cand))
	for i, c := range cand {
		seqs[i] = c.seq
	}
	path := t.spanTrack()
	seq, ok := d.Pick(path, seqs)
	if !ok {
		return nil, nil
	}
	var c *Task
	if !fromSet {
		c = t.awaitSeq(seq)
	} else if i := slices.Index(seqs, seq); i >= 0 {
		c = cand[i]
		t.awaitQuiescent(c)
	}
	if c == nil {
		return nil, fmt.Errorf("%w: child seq %d at %s, candidates %v", ErrBadPick, seq, path, seqs)
	}
	return c, nil
}

// sortedBySeq returns the members of set in ascending creation order.
func sortedBySeq(set map[*Task]bool) []*Task {
	cand := make([]*Task, 0, len(set))
	for c := range set {
		cand = append(cand, c)
	}
	slices.SortFunc(cand, func(a, b *Task) int { return cmp.Compare(a.seq, b.seq) })
	return cand
}

// awaitSeq blocks until the live child with creation sequence number seq
// announces quiescence; other announcements queue up as usual. Only a
// running child can still clone the awaited one, so once every live child
// is queued quiescent without a match awaitSeq gives up and returns nil.
func (t *Task) awaitSeq(seq uint64) *Task {
	for {
		for i, q := range t.pendingList {
			if q.seq == seq {
				t.pendingList = append(t.pendingList[:i], t.pendingList[i+1:]...)
				return q
			}
		}
		t.mu.Lock()
		live := len(t.children)
		t.mu.Unlock()
		if len(t.pendingList) == live {
			return nil
		}
		t.pendingList = append(t.pendingList, t.recvReady())
	}
}

// path returns the task's stable identity: the chain of per-parent
// creation sequence numbers from the root.
func (t *Task) path() string {
	if t.parent == nil {
		return "r"
	}
	return fmt.Sprintf("%s/%d", t.parent.path(), t.seq)
}
