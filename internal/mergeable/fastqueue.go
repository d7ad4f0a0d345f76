package mergeable

import (
	"fmt"

	"repro/internal/cow"
	"repro/internal/ot"
)

// FastQueue is a mergeable FIFO queue backed by a persistent
// (copy-on-write) vector instead of a deep-copied slice. It implements
// the optimization the paper's conclusion announces as future work:
// because the vector is immutable and structurally shared, CloneValue and
// AdoptFrom are O(1), which removes most of the constant spawn/sync
// copying overhead Section III measures. Semantics are identical to
// Queue; the netsim ablation engines quantify the difference.
//
// Representation: vec holds the queue's elements from index head onward.
// PopFront advances head instead of copying; the prefix is compacted away
// once it dominates the vector.
type FastQueue[T any] struct {
	log  Log
	vec  cow.Vector[T]
	head int
	// fp caches the running FNV-1a state of the fingerprint rendering;
	// pushes extend it incrementally, pops and splices invalidate.
	fp fpCache
}

// NewFastQueue returns a COW-backed mergeable queue holding vals
// front-to-back.
func NewFastQueue[T any](vals ...T) *FastQueue[T] {
	return &FastQueue[T]{vec: cow.New(vals...)}
}

// Log implements Mergeable.
func (q *FastQueue[T]) Log() *Log { return &q.log }

// Len returns the number of queued elements.
func (q *FastQueue[T]) Len() int {
	q.log.ensureUsable()
	return q.vec.Len() - q.head
}

// Empty reports whether the queue holds no elements.
func (q *FastQueue[T]) Empty() bool { return q.Len() == 0 }

// Push appends v to the back of the queue. The push is recorded through
// the run-coalescing recorder: a burst of pushes logs one composite
// SeqInsert, and a push immediately popped again logs nothing at all.
func (q *FastQueue[T]) Push(v T) {
	q.log.ensureUsable()
	pos := q.vec.Len() - q.head
	q.vec = q.vec.AppendOwned(v)
	q.fp.fold(v)
	q.log.recordSeqInsert1(pos, v)
}

// PopFront removes and returns the front element. ok is false when the
// queue is empty.
func (q *FastQueue[T]) PopFront() (v T, ok bool) {
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
func (q *FastQueue[T]) Peek() (v T, ok bool) {
	q.log.ensureUsable()
	if q.vec.Len() == q.head {
		return v, false
	}
	return q.vec.Get(q.head), true
}

// Values returns a copy of the queued elements, front first.
func (q *FastQueue[T]) Values() []T {
	q.log.ensureUsable()
	return q.tail()
}

// maybeCompact rebuilds the vector without the consumed prefix once the
// prefix dominates, keeping memory proportional to the live queue.
func (q *FastQueue[T]) maybeCompact() {
	if q.head < 64 || q.head <= q.vec.Len()/2 {
		return
	}
	cow.Replace(&q.vec, cow.FromSlice(q.tail()))
	q.head = 0
}

// tail returns the live elements via one bulk Slice instead of a per-index
// trie walk.
func (q *FastQueue[T]) tail() []T {
	if q.head == 0 {
		return q.vec.Slice()
	}
	return q.vec.Slice()[q.head:]
}

// applySeq applies one remote sequence op. Front deletions and back
// insertions — the only shapes queue usage produces — take O(1)/O(log n)
// fast paths; anything else splices the vector past the consumed prefix.
func (q *FastQueue[T]) applySeq(op ot.Op) error {
	n := q.vec.Len() - q.head
	switch v := op.(type) {
	case ot.SeqInsert:
		if v.Pos < 0 || v.Pos > n {
			return fmt.Errorf("mergeable: fastqueue %s out of range for length %d", v, n)
		}
		vals := make([]T, len(v.Elems))
		for i, e := range v.Elems {
			tv, ok := e.(T)
			if !ok {
				return fmt.Errorf("mergeable: fastqueue %s carries %T, want %T", v, e, tv)
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
			return fmt.Errorf("mergeable: fastqueue %s out of range for length %d", v, n)
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
			return fmt.Errorf("mergeable: fastqueue %s out of range for length %d", v, n)
		}
		tv, ok := v.Elem.(T)
		if !ok {
			return fmt.Errorf("mergeable: fastqueue %s carries %T", v, v.Elem)
		}
		q.vec = q.vec.SetOwned(q.head+v.Pos, tv)
		q.fp.invalidate()
		return nil
	}
	return fmt.Errorf("mergeable: %s is not a queue operation", op.Kind())
}

// CloneValue implements Mergeable. It is O(1): the persistent vector is
// shared structurally. The parent marks its tail shared and hands the
// child a capacity-clipped view (see List.CloneValue).
func (q *FastQueue[T]) CloneValue() Mergeable {
	q.vec.MarkShared()
	return &FastQueue[T]{vec: q.vec.Sealed(), head: q.head, fp: q.fp}
}

// ApplyRemote implements Mergeable.
func (q *FastQueue[T]) ApplyRemote(ops []ot.Op) error {
	for _, op := range ops {
		if err := q.applySeq(op); err != nil {
			return err
		}
	}
	return nil
}

// AdoptFrom implements Mergeable. Also O(1).
func (q *FastQueue[T]) AdoptFrom(src Mergeable) error {
	s, ok := src.(*FastQueue[T])
	if !ok {
		return adoptErr(q, src)
	}
	s.vec.MarkShared() // shared from here on; see CloneValue
	q.vec, q.head = s.vec.Sealed(), s.head
	q.fp = s.fp
	return nil
}

// Fingerprint implements Mergeable. It matches Queue's fingerprint for
// equal contents, so cross-ablation oracles can compare them directly.
// O(1) for push-only histories via the running hash.
func (q *FastQueue[T]) Fingerprint() uint64 {
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
func (q *FastQueue[T]) String() string {
	q.log.ensureUsable()
	return fmt.Sprintf("%v", q.Values())
}
