package mergeable

import (
	"fmt"

	"repro/internal/cow"
	"repro/internal/ot"
)

// Queue is a mergeable FIFO queue, the structure used by the paper's
// network-simulation example (Listing 4: "MergeableQueue").
//
// Push appends to the back; PopFront removes from the front. Under the
// sequence OT algebra a pop that races another pop of the same element
// collapses into a single removal, so a queue with one consumer per queue —
// the simulation's shape — behaves exactly like a locked queue, without the
// lock.
//
// The queue is backed by a persistent (copy-on-write) vector: vec holds the
// elements from index head onward, PopFront advances head instead of
// copying, and the consumed prefix is compacted away once it dominates.
// CloneValue and AdoptFrom are O(1) structural sharing, which removes the
// per-spawn deep-copy overhead Section III measures.
type Queue[T any] struct {
	log  Log
	vec  cow.Vector[T]
	head int
	// fp caches the running FNV-1a state of the fingerprint rendering;
	// pushes extend it incrementally, pops and splices invalidate.
	fp fpCache
}

// NewQueue returns a mergeable queue holding vals front-to-back.
func NewQueue[T any](vals ...T) *Queue[T] {
	return &Queue[T]{vec: cow.FromSlice(vals)}
}

// Log implements Mergeable.
func (q *Queue[T]) Log() *Log { return &q.log }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int {
	q.log.ensureUsable()
	return q.vec.Len() - q.head
}

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Push appends v to the back of the queue. The push is recorded through
// the run-coalescing recorder: a burst of pushes logs one composite
// SeqInsert, and a push immediately popped again logs nothing at all.
func (q *Queue[T]) Push(v T) {
	q.log.ensureUsable()
	pos := q.vec.Len() - q.head
	q.vec = q.vec.AppendOwned(v)
	q.fp.fold(v)
	q.log.recordSeqInsert1(pos, v)
}

// PopFront removes and returns the front element. ok is false when the
// queue is empty.
func (q *Queue[T]) PopFront() (v T, ok bool) {
	q.log.ensureUsable()
	if q.vec.Len() == q.head {
		return v, false
	}
	v = q.vec.Get(q.head)
	q.head++
	q.maybeCompact()
	q.fp.invalidate()
	q.log.recordSeqDelete(0, 1)
	return v, true
}

// Peek returns the front element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	q.log.ensureUsable()
	if q.vec.Len() == q.head {
		return v, false
	}
	return q.vec.Get(q.head), true
}

// Values returns a copy of the queued elements, front first.
func (q *Queue[T]) Values() []T {
	q.log.ensureUsable()
	return q.tail()
}

// maybeCompact rebuilds the vector without the consumed prefix once the
// prefix dominates, keeping memory proportional to the live queue.
func (q *Queue[T]) maybeCompact() {
	if q.head < 64 || q.head <= q.vec.Len()/2 {
		return
	}
	cow.Replace(&q.vec, cow.FromSlice(q.tail()))
	q.head = 0
}

func (q *Queue[T]) tail() []T {
	if q.head == 0 {
		return q.vec.Slice()
	}
	return q.vec.Slice()[q.head:]
}

// applySeq applies one remote sequence op. Front deletions and back
// insertions — the only shapes queue usage produces — take O(1)/O(log n)
// fast paths; anything else splices the vector past the consumed prefix.
func (q *Queue[T]) applySeq(op ot.Op) error {
	n := q.vec.Len() - q.head
	switch v := op.(type) {
	case ot.SeqInsert:
		if v.Pos < 0 || v.Pos > n {
			return fmt.Errorf("mergeable: queue %s out of range for length %d", v, n)
		}
		vals := make([]T, len(v.Elems))
		for i, e := range v.Elems {
			tv, ok := e.(T)
			if !ok {
				return fmt.Errorf("mergeable: queue %s carries %T, want %T", v, e, tv)
			}
			vals[i] = tv
		}
		if v.Pos == n { // append fast path
			for _, x := range vals {
				q.vec = q.vec.AppendOwned(x)
				q.fp.fold(x)
			}
			return nil
		}
		q.vec = q.vec.Splice(q.head+v.Pos, 0, vals...)
		q.fp.invalidate()
		return nil
	case ot.SeqDelete:
		if v.N < 0 || v.Pos < 0 || v.Pos+v.N > n {
			return fmt.Errorf("mergeable: queue %s out of range for length %d", v, n)
		}
		q.fp.invalidate()
		if v.Pos == 0 { // front-deletion fast path
			q.head += v.N
			q.maybeCompact()
			return nil
		}
		q.vec = q.vec.Splice(q.head+v.Pos, v.N)
		q.maybeCompact() // the splice kept the consumed prefix
		return nil
	case ot.SeqSet:
		if v.Pos < 0 || v.Pos >= n {
			return fmt.Errorf("mergeable: queue %s out of range for length %d", v, n)
		}
		tv, ok := v.Elem.(T)
		if !ok {
			return fmt.Errorf("mergeable: queue %s carries %T", v, v.Elem)
		}
		q.vec = q.vec.SetOwned(q.head+v.Pos, tv)
		q.fp.invalidate()
		return nil
	}
	return fmt.Errorf("mergeable: %s is not a queue operation", op.Kind())
}

// CloneValue implements Mergeable. It is O(1): the persistent vector is
// shared structurally. The parent marks its tail shared and hands the
// child a capacity-clipped view (see List.CloneValue); the parent's own
// in-place append run continues undisturbed.
func (q *Queue[T]) CloneValue() Mergeable {
	q.vec.MarkShared()
	return &Queue[T]{vec: q.vec.Sealed(), head: q.head, fp: q.fp}
}

// ApplyRemote implements Mergeable.
func (q *Queue[T]) ApplyRemote(ops []ot.Op) error {
	for _, op := range ops {
		if err := q.applySeq(op); err != nil {
			return err
		}
	}
	return nil
}

// AdoptFrom implements Mergeable. Also O(1).
func (q *Queue[T]) AdoptFrom(src Mergeable) error {
	s, ok := src.(*Queue[T])
	if !ok {
		return adoptErr(q, src)
	}
	s.vec.MarkShared() // shared from here on; see CloneValue
	q.vec, q.head = s.vec.Sealed(), s.head
	q.fp = s.fp
	return nil
}

// Fingerprint implements Mergeable. O(1) for push-only histories via the
// running hash; pops force a lazy rebuild.
func (q *Queue[T]) Fingerprint() uint64 {
	if !q.fp.ok {
		c := fpCache{h: fnvFoldString(fnvOffset64, "queue["), ok: true}
		for _, e := range q.tail() {
			c.fold(e)
		}
		q.fp = c
	}
	return fnvFoldByte(q.fp.h, ']')
}

// String renders the queue front-to-back.
func (q *Queue[T]) String() string {
	q.log.ensureUsable()
	return fmt.Sprintf("%v", q.Values())
}
