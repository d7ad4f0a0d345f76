package mergeable

import (
	"fmt"

	"repro/internal/cow"
	"repro/internal/ot"
)

// FastList is a mergeable list backed by a persistent (copy-on-write)
// vector: the COW counterpart of List, with O(1) CloneValue/AdoptFrom.
// Appends and overwrites take the fast path; transformed interior
// insertions and deletions splice. It exists for
// append-heavy structures copied on every spawn and sync — in the netsim
// ablation, the per-host processing traces.
type FastList[T any] struct {
	log Log
	vec cow.Vector[T]
	// fp caches the running FNV-1a state of the fingerprint rendering;
	// appends extend it incrementally, other mutations invalidate.
	fp fpCache
}

// NewFastList returns a COW-backed mergeable list holding vals.
func NewFastList[T any](vals ...T) *FastList[T] {
	return &FastList[T]{vec: cow.New(vals...)}
}

// Log implements Mergeable.
func (l *FastList[T]) Log() *Log { return &l.log }

// Len returns the number of elements.
func (l *FastList[T]) Len() int {
	l.log.ensureUsable()
	return l.vec.Len()
}

// Get returns the element at index i.
func (l *FastList[T]) Get(i int) T {
	l.log.ensureUsable()
	return l.vec.Get(i)
}

// Values returns a copy of the list's contents.
func (l *FastList[T]) Values() []T {
	l.log.ensureUsable()
	return l.vec.Slice()
}

// Append adds vals to the end of the list. Each element goes straight into
// the vector and the run-coalescing recorder: an append loop logs one
// composite SeqInsert without intermediate []any boxes.
func (l *FastList[T]) Append(vals ...T) {
	l.log.ensureUsable()
	if len(vals) == 0 {
		return
	}
	pos := l.vec.Len()
	for j, v := range vals {
		l.vec = l.vec.AppendOwned(v)
		l.fp.fold(v)
		l.log.recordSeqInsert1(pos+j, v)
	}
}

// Set overwrites the element at index i (in place when the tail is
// exclusively owned; see List.Set).
func (l *FastList[T]) Set(i int, v T) {
	l.log.ensureUsable()
	if i < 0 || i >= l.vec.Len() {
		panic(fmt.Sprintf("mergeable: FastList.Set index %d out of range [0,%d)", i, l.vec.Len()))
	}
	l.vec = l.vec.SetOwned(i, v)
	l.fp.invalidate()
	l.log.recordSeqSet(i, v)
}

func (l *FastList[T]) applySeq(op ot.Op) error {
	n := l.vec.Len()
	switch v := op.(type) {
	case ot.SeqInsert:
		if v.Pos < 0 || v.Pos > n {
			return fmt.Errorf("mergeable: fastlist %s out of range for length %d", v, n)
		}
		if v.Pos == n { // append fast path, no intermediate []T
			for _, e := range v.Elems { // validate first: an op applies atomically
				if tv, ok := e.(T); !ok {
					return fmt.Errorf("mergeable: fastlist %s carries %T, want %T", v, e, tv)
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
				return fmt.Errorf("mergeable: fastlist %s carries %T, want %T", v, e, tv)
			}
			vals[i] = tv
		}
		l.vec = l.vec.Splice(v.Pos, 0, vals...)
		l.fp.invalidate()
		return nil
	case ot.SeqDelete:
		if v.N < 0 || v.Pos < 0 || v.Pos+v.N > n {
			return fmt.Errorf("mergeable: fastlist %s out of range for length %d", v, n)
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
			return fmt.Errorf("mergeable: fastlist %s out of range for length %d", v, n)
		}
		tv, ok := v.Elem.(T)
		if !ok {
			return fmt.Errorf("mergeable: fastlist %s carries %T", v, v.Elem)
		}
		l.vec = l.vec.SetOwned(v.Pos, tv)
		l.fp.invalidate()
		return nil
	}
	return fmt.Errorf("mergeable: %s is not a list operation", op.Kind())
}

// CloneValue implements Mergeable in O(1). The parent marks its tail
// shared and hands the child a capacity-clipped view (see List.CloneValue).
func (l *FastList[T]) CloneValue() Mergeable {
	l.vec.MarkShared()
	return &FastList[T]{vec: l.vec.Sealed(), fp: l.fp}
}

// ApplyRemote implements Mergeable.
func (l *FastList[T]) ApplyRemote(ops []ot.Op) error {
	for _, op := range ops {
		if err := l.applySeq(op); err != nil {
			return err
		}
	}
	return nil
}

// AdoptFrom implements Mergeable in O(1).
func (l *FastList[T]) AdoptFrom(src Mergeable) error {
	s, ok := src.(*FastList[T])
	if !ok {
		return adoptErr(l, src)
	}
	s.vec.MarkShared() // shared from here on; see CloneValue
	l.vec = s.vec.Sealed()
	l.fp = s.fp
	return nil
}

// Fingerprint implements Mergeable; equal contents fingerprint equal to
// List's. O(1) for append-only histories via the running hash.
func (l *FastList[T]) Fingerprint() uint64 {
	if !l.fp.ok {
		c := fpCache{h: fnvFoldString(fnvOffset64, "list["), ok: true}
		for _, e := range l.vec.Slice() {
			c.fold(e)
		}
		l.fp = c
	}
	return fnvFoldByte(l.fp.h, ']')
}

// String renders the list like fmt does for slices.
func (l *FastList[T]) String() string {
	l.log.ensureUsable()
	return fmt.Sprintf("%v", l.Values())
}
