package mergeable

import (
	"fmt"
	"strings"

	"repro/internal/cow"
	"repro/internal/ot"
)

// List is a mergeable ordered sequence of values, the workhorse structure of
// the paper's examples (Listing 1 operates on a mergeable list).
//
// Concurrent modifications by different tasks are reconciled element-wise
// with the sequence OT algebra: insertions shift concurrent indices,
// deletions absorb overlapping deletions, and a deletion crossing a
// concurrent insertion splits around it.
//
// The list is backed by a persistent (copy-on-write) vector, so the deep
// copy every Spawn and Sync takes is O(1) structural sharing rather than an
// element-wise copy — the optimization the paper's conclusion announces as
// future work. Appends, overwrites and interior insertions and deletions
// all copy O(log n) trie nodes: an interior edit splices one leaf and its
// path (cow.Vector.Splice).
type List[T any] struct {
	log Log
	vec cow.Vector[T]
	// fp caches the running FNV-1a state of the fingerprint rendering's
	// prefix; appends extend it incrementally, other mutations invalidate.
	fp fpCache
}

// NewList returns a mergeable list holding vals.
func NewList[T any](vals ...T) *List[T] {
	return &List[T]{vec: cow.FromSlice(vals)}
}

// Log implements Mergeable.
func (l *List[T]) Log() *Log { return &l.log }

// Len returns the number of elements.
func (l *List[T]) Len() int {
	l.log.ensureUsable()
	return l.vec.Len()
}

// Get returns the element at index i.
func (l *List[T]) Get(i int) T {
	l.log.ensureUsable()
	return l.vec.Get(i)
}

// Values returns a copy of the list's contents.
func (l *List[T]) Values() []T {
	l.log.ensureUsable()
	return l.vec.Slice()
}

// Append adds vals to the end of the list.
func (l *List[T]) Append(vals ...T) {
	l.Insert(l.vec.Len(), vals...)
}

// Insert inserts vals before index i. Appends skip the generic operation
// path entirely: each element goes straight into the vector and the
// run-coalescing recorder, so an append loop logs one composite SeqInsert
// and never builds intermediate []any boxes.
func (l *List[T]) Insert(i int, vals ...T) {
	l.log.ensureUsable()
	n := l.vec.Len()
	if i < 0 || i > n {
		panic(fmt.Sprintf("mergeable: List.Insert index %d out of range [0,%d]", i, n))
	}
	if len(vals) == 0 {
		return
	}
	if i == n { // append fast path
		for j, v := range vals {
			l.vec = l.vec.AppendOwned(v)
			l.fp.fold(v)
			l.log.recordSeqInsert1(i+j, v)
		}
		return
	}
	elems := make([]any, len(vals))
	for j, v := range vals {
		elems[j] = v
	}
	l.vec = l.vec.Splice(i, 0, vals...)
	l.fp.invalidate()
	l.log.Record(ot.SeqInsert{Pos: i, Elems: elems})
}

// Delete removes the element at index i.
func (l *List[T]) Delete(i int) { l.DeleteN(i, 1) }

// DeleteN removes n consecutive elements starting at index i.
func (l *List[T]) DeleteN(i, n int) {
	l.log.ensureUsable()
	if n < 0 || i < 0 || i+n > l.vec.Len() {
		panic(fmt.Sprintf("mergeable: List.DeleteN range [%d,%d) out of range [0,%d]", i, i+n, l.vec.Len()))
	}
	if n == 0 {
		return
	}
	if i+n == l.vec.Len() { // trailing deletion fast path
		for k := 0; k < n; k++ {
			l.vec = l.vec.Pop()
		}
	} else {
		l.vec = l.vec.Splice(i, n)
	}
	l.fp.invalidate()
	l.log.recordSeqDelete(i, n)
}

// Set overwrites the element at index i. The write goes through SetOwned —
// the single-owner façade guarantees exclusive ownership of the backing
// vector (clones mark the tail shared first) — so an overwrite loop mutates
// the tail in place instead of copying it per write.
func (l *List[T]) Set(i int, v T) {
	l.log.ensureUsable()
	if i < 0 || i >= l.vec.Len() {
		panic(fmt.Sprintf("mergeable: List.Set index %d out of range [0,%d)", i, l.vec.Len()))
	}
	l.vec = l.vec.SetOwned(i, v)
	l.fp.invalidate()
	l.log.recordSeqSet(i, v)
}

// applySeq applies a sequence op to the backing vector. Appends, trailing
// deletions and overwrites take persistent-vector fast paths; interior
// edits splice.
func (l *List[T]) applySeq(op ot.Op) error {
	n := l.vec.Len()
	switch v := op.(type) {
	case ot.SeqInsert:
		if v.Pos < 0 || v.Pos > n {
			return fmt.Errorf("mergeable: list %s out of range for length %d", v, n)
		}
		if v.Pos == n { // append fast path, no intermediate []T
			for _, e := range v.Elems { // validate first: an op applies atomically
				if tv, ok := e.(T); !ok {
					return fmt.Errorf("mergeable: list %s carries %T, want %T", v, e, tv)
				}
			}
			for _, e := range v.Elems {
				tv := e.(T)
				l.vec = l.vec.AppendOwned(tv)
				l.fp.fold(tv)
			}
			return nil
		}
		vals := make([]T, len(v.Elems))
		for i, e := range v.Elems {
			tv, ok := e.(T)
			if !ok {
				return fmt.Errorf("mergeable: list %s carries %T, want %T", v, e, tv)
			}
			vals[i] = tv
		}
		l.vec = l.vec.Splice(v.Pos, 0, vals...)
		l.fp.invalidate()
		return nil
	case ot.SeqDelete:
		if v.N < 0 || v.Pos < 0 || v.Pos+v.N > n {
			return fmt.Errorf("mergeable: list %s out of range for length %d", v, n)
		}
		l.fp.invalidate()
		if v.Pos+v.N == n { // trailing deletion fast path
			for i := 0; i < v.N; i++ {
				l.vec = l.vec.Pop()
			}
			return nil
		}
		l.vec = l.vec.Splice(v.Pos, v.N)
		return nil
	case ot.SeqSet:
		if v.Pos < 0 || v.Pos >= n {
			return fmt.Errorf("mergeable: list %s out of range for length %d", v, n)
		}
		tv, ok := v.Elem.(T)
		if !ok {
			return fmt.Errorf("mergeable: list %s carries %T", v, v.Elem)
		}
		l.vec = l.vec.SetOwned(v.Pos, tv)
		l.fp.invalidate()
		return nil
	}
	return fmt.Errorf("mergeable: %s is not a list operation", op.Kind())
}

// CloneValue implements Mergeable. It is O(1): the persistent vector is
// shared structurally, which is what makes spawning on large lists cheap.
// The parent marks its tail shared (so in-place overwrites copy first) and
// hands the child a capacity-clipped view (so in-place appends on either
// side stay invisible to the other); the parent's own append run keeps its
// spare capacity and continues in place.
func (l *List[T]) CloneValue() Mergeable {
	l.vec.MarkShared()
	return &List[T]{vec: l.vec.Sealed(), fp: l.fp}
}

// ApplyRemote implements Mergeable.
func (l *List[T]) ApplyRemote(ops []ot.Op) error {
	for _, op := range ops {
		if err := l.applySeq(op); err != nil {
			return err
		}
	}
	return nil
}

// AdoptFrom implements Mergeable. Also O(1).
func (l *List[T]) AdoptFrom(src Mergeable) error {
	s, ok := src.(*List[T])
	if !ok {
		return adoptErr(l, src)
	}
	s.vec.MarkShared() // shared from here on; see CloneValue
	l.vec = s.vec.Sealed()
	l.fp = s.fp
	return nil
}

// Fingerprint implements Mergeable. The running hash makes it O(1) for
// append-only histories; anything else rebuilds lazily (and re-arms the
// incremental path).
func (l *List[T]) Fingerprint() uint64 {
	if !l.fp.ok {
		c := fpCache{h: fnvFoldString(fnvOffset64, "list["), ok: true}
		for _, e := range l.vec.Slice() {
			c.fold(e)
		}
		l.fp = c
	}
	return fnvFoldByte(l.fp.h, ']')
}

func (l *List[T]) render() string {
	var sb strings.Builder
	sb.WriteString("list[")
	for i, e := range l.vec.Slice() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%v", e)
	}
	sb.WriteByte(']')
	return sb.String()
}

// String renders the list like fmt does for slices.
func (l *List[T]) String() string {
	l.log.ensureUsable()
	return fmt.Sprintf("%v", l.vec.Slice())
}
