package mergeable

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ot"
)

// mergeInto emulates a runtime merge step for tests: child was cloned from
// parent at base version; its local ops are transformed against the
// parent's committed history since base and applied to the parent.
func mergeInto(t *testing.T, parent, child Mergeable, base int) {
	t.Helper()
	parent.Log().Commit(parent.Log().TakeLocal())
	server := parent.Log().CommittedSince(base)
	transformed := ot.TransformAgainst(child.Log().TakeLocal(), server)
	if err := parent.ApplyRemote(transformed); err != nil {
		t.Fatalf("merge apply: %v", err)
	}
	parent.Log().Commit(transformed)
}

// spawnCopy emulates Spawn for tests: flush the parent's local ops and
// return a copy plus its base version.
func spawnCopy(parent Mergeable) (Mergeable, int) {
	parent.Log().Commit(parent.Log().TakeLocal())
	return parent.CloneValue(), parent.Log().CommittedLen()
}

func TestListBasics(t *testing.T) {
	l := NewList(1, 2, 3)
	if l.Len() != 3 || l.Get(0) != 1 {
		t.Fatalf("unexpected list %v", l.Values())
	}
	l.Append(4)
	l.Insert(0, 0)
	l.Set(2, 20)
	l.Delete(4)
	if got := l.Values(); !reflect.DeepEqual(got, []int{0, 1, 20, 3}) {
		t.Fatalf("got %v", got)
	}
	if len(l.Log().LocalOps()) != 4 {
		t.Fatalf("expected 4 recorded ops, got %v", l.Log().LocalOps())
	}
	if l.String() != "[0 1 20 3]" {
		t.Fatalf("String() = %q", l.String())
	}
}

func TestListPanicsOnBadIndex(t *testing.T) {
	l := NewList(1)
	for name, f := range map[string]func(){
		"insert":  func() { l.Insert(5, 9) },
		"delete":  func() { l.Delete(3) },
		"deleteN": func() { l.DeleteN(0, 2) },
		"set":     func() { l.Set(-1, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestListing1 replays Listing 1 of the paper at the data-structure level:
// parent appends 4, child (spawned copy) appends 5, merge yields
// [1 2 3 4 5].
func TestListing1(t *testing.T) {
	list := NewList(1, 2, 3)
	childCopy, base := spawnCopy(list)
	child := childCopy.(*List[int])

	child.Append(5) // f(l) in the child task
	list.Append(4)  // parent appends concurrently

	mergeInto(t, list, child, base)
	if got := list.Values(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("merged list = %v, want [1 2 3 4 5]", got)
	}
}

func TestListMergeConflictingInserts(t *testing.T) {
	list := NewList("a", "b", "c")
	c1m, b1 := spawnCopy(list)
	c2m, b2 := spawnCopy(list)
	c1 := c1m.(*List[string])
	c2 := c2m.(*List[string])

	c1.Delete(2)      // del(2) — Figure 1's process A
	c2.Insert(0, "d") // ins(0,d) — Figure 1's process B

	mergeInto(t, list, c1, b1)
	mergeInto(t, list, c2, b2)
	if got := list.Values(); !reflect.DeepEqual(got, []string{"d", "a", "b"}) {
		t.Fatalf("merged list = %v, want [d a b] (Figure 2)", got)
	}
}

func TestListCloneIndependence(t *testing.T) {
	l := NewList(1, 2, 3)
	c := l.CloneValue().(*List[int])
	c.Append(4)
	if l.Len() != 3 {
		t.Fatalf("clone mutation leaked into parent: %v", l.Values())
	}
	if len(c.Log().LocalOps()) != 1 {
		t.Fatalf("clone should start with empty log")
	}
}

func TestListAdoptFrom(t *testing.T) {
	l := NewList(1, 2)
	src := NewList(7, 8, 9)
	if err := l.AdoptFrom(src); err != nil {
		t.Fatal(err)
	}
	src.Set(0, 100)
	if got := l.Values(); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Fatalf("adopt failed or aliased: %v", got)
	}
	if err := l.AdoptFrom(NewText("x")); err == nil {
		t.Fatalf("adopting foreign type should fail")
	}
}

func TestListApplyRemoteErrors(t *testing.T) {
	l := NewList(1, 2)
	if err := l.ApplyRemote([]ot.Op{ot.SeqInsert{Pos: 9, Elems: []any{3}}}); err == nil {
		t.Fatalf("out-of-range remote op should fail")
	}
	if err := l.ApplyRemote([]ot.Op{ot.SeqInsert{Pos: 0, Elems: []any{"wrong type"}}}); err == nil {
		t.Fatalf("wrong payload type should fail")
	}
	if err := l.ApplyRemote([]ot.Op{ot.SeqSet{Pos: 0, Elem: "bad"}}); err == nil {
		t.Fatalf("wrong set payload type should fail")
	}
	if err := l.ApplyRemote([]ot.Op{ot.CounterAdd{Delta: 1}}); err == nil {
		t.Fatalf("foreign op family should fail")
	}
	if err := l.ApplyRemote([]ot.Op{ot.SeqDelete{Pos: 0, N: 5}}); err == nil {
		t.Fatalf("out-of-range delete should fail")
	}
}

func TestListFingerprint(t *testing.T) {
	a := NewList(1, 2, 3)
	b := NewList(1, 2, 3)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal lists must have equal fingerprints")
	}
	b.Append(4)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("different lists should differ in fingerprint")
	}
}

func TestQueueBasics(t *testing.T) {
	q := NewQueue[string]()
	if !q.Empty() {
		t.Fatalf("new queue should be empty")
	}
	if _, ok := q.PopFront(); ok {
		t.Fatalf("pop of empty queue should report !ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatalf("peek of empty queue should report !ok")
	}
	q.Push("a")
	q.Push("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %v/%v", v, ok)
	}
	v, ok := q.PopFront()
	if !ok || v != "a" {
		t.Fatalf("pop = %v/%v", v, ok)
	}
	if got := q.Values(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("values = %v", got)
	}
	if q.String() != "[b]" {
		t.Fatalf("String() = %q", q.String())
	}
}

// TestQueueProducerConsumerMerge exercises the simulation pattern: one
// child pushes into a queue while the owner pops from it.
func TestQueueProducerConsumerMerge(t *testing.T) {
	q := NewQueue(1, 2)
	producerM, base := spawnCopy(q)
	producer := producerM.(*Queue[int])

	producer.Push(3)
	producer.Push(4)
	if v, _ := q.PopFront(); v != 1 { // owner concurrently consumes
		t.Fatalf("popped %d", v)
	}

	mergeInto(t, q, producer, base)
	if got := q.Values(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("merged queue = %v, want [2 3 4]", got)
	}
}

// TestQueueConcurrentPopCollapses documents the at-least-once semantics of
// racing pops: two copies popping the same element merge into a single
// removal.
func TestQueueConcurrentPopCollapses(t *testing.T) {
	q := NewQueue("x", "y")
	c1m, b1 := spawnCopy(q)
	c2m, b2 := spawnCopy(q)
	c1 := c1m.(*Queue[string])
	c2 := c2m.(*Queue[string])

	v1, _ := c1.PopFront()
	v2, _ := c2.PopFront()
	if v1 != "x" || v2 != "x" {
		t.Fatalf("both copies should see the same front: %q %q", v1, v2)
	}
	mergeInto(t, q, c1, b1)
	mergeInto(t, q, c2, b2)
	if got := q.Values(); !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("merged queue = %v, want [y]: concurrent pops must collapse", got)
	}
}

func TestQueueAdoptAndClone(t *testing.T) {
	q := NewQueue(1, 2, 3)
	c := q.CloneValue().(*Queue[int])
	c.Push(4)
	if q.Len() != 3 {
		t.Fatalf("clone aliased parent")
	}
	other := NewQueue(9)
	if err := other.AdoptFrom(q); err != nil {
		t.Fatal(err)
	}
	if got := other.Values(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("adopt = %v", got)
	}
	if err := other.AdoptFrom(NewCounter(0)); err == nil {
		t.Fatalf("adopting foreign type should fail")
	}
	if err := other.ApplyRemote([]ot.Op{ot.RegisterSet{Value: 1}}); err == nil {
		t.Fatalf("foreign op family should fail")
	}
	if other.Fingerprint() != q.Fingerprint() {
		t.Fatalf("equal queues must share fingerprints")
	}
}

// The TestFastQueue* and TestFastList* names come from the FastQueue and
// FastList types, since folded into Queue and List; the tests run on those.

// TestFastQueueCloneIsShared: a clone shares the parent's storage but not
// its edits, and starts with a fresh log.
func TestFastQueueCloneIsShared(t *testing.T) {
	q := NewQueue(1, 2, 3)
	c := q.CloneValue().(*Queue[int])
	c.Push(4)
	if q.Len() != 3 {
		t.Fatalf("clone mutation leaked: %v", q.Values())
	}
	if c.Len() != 4 {
		t.Fatalf("clone = %v", c.Values())
	}
	if len(c.Log().LocalOps()) != 1 {
		t.Fatal("clone should start with a fresh log")
	}
}

func TestFastQueueAdoptApplyErrors(t *testing.T) {
	q := NewQueue(1)
	if err := q.AdoptFrom(NewCounter(0)); err == nil {
		t.Fatal("foreign adopt should fail")
	}
	if err := q.AdoptFrom(NewQueue(7, 8)); err != nil || !reflect.DeepEqual(q.Values(), []int{7, 8}) {
		t.Fatalf("adopt: %v %v", err, q.Values())
	}
	for _, op := range []ot.Op{
		ot.SeqInsert{Pos: 9, Elems: []any{1}},
		ot.SeqInsert{Pos: 0, Elems: []any{"bad"}},
		ot.SeqDelete{Pos: 0, N: 9},
		ot.SeqSet{Pos: 9, Elem: 1},
		ot.SeqSet{Pos: 0, Elem: "bad"},
		ot.CounterAdd{Delta: 1},
	} {
		if err := q.ApplyRemote([]ot.Op{op}); err == nil {
			t.Errorf("apply %v should fail", op)
		}
	}
}

// TestFastQueueMergeSemantics replays the producer/consumer and
// concurrent-pop merges on a queue whose consumed prefix is not yet
// compacted, so merged ops land behind a nonzero head.
func TestFastQueueMergeSemantics(t *testing.T) {
	q := NewQueue(0, 1, 2)
	q.PopFront()
	producerM, base := spawnCopy(q)
	producer := producerM.(*Queue[int])
	producer.Push(3)
	if v, _ := q.PopFront(); v != 1 {
		t.Fatalf("popped %d", v)
	}
	mergeInto(t, q, producer, base)
	if got := q.Values(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("merged queue = %v", got)
	}

	c1m, b1 := spawnCopy(q)
	c2m, b2 := spawnCopy(q)
	c1m.(*Queue[int]).PopFront()
	c2m.(*Queue[int]).PopFront()
	mergeInto(t, q, c1m, b1)
	mergeInto(t, q, c2m, b2)
	if got := q.Values(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("concurrent pops should collapse: %v", got)
	}
}

// TestQueueCompaction: popping most of a long queue drops the consumed
// prefix from the backing vector.
func TestQueueCompaction(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 1000; i++ {
		q.Push(i)
	}
	for i := 0; i < 990; i++ {
		if v, ok := q.PopFront(); !ok || v != i {
			t.Fatalf("pop %d = %d/%v", i, v, ok)
		}
	}
	if q.Len() != 10 || q.head > q.vec.Len() || q.vec.Len() > 600 {
		t.Fatalf("compaction never ran: head %d, vector %d, len %d", q.head, q.vec.Len(), q.Len())
	}
}

// TestQueueInteriorDeleteDropsPrefix pins that an interior delete, which
// splices past the consumed prefix, drops that prefix once it dominates,
// as a front pop does.
func TestQueueInteriorDeleteDropsPrefix(t *testing.T) {
	want := []int{90}
	for i := 171; i < 200; i++ {
		want = append(want, i)
	}
	q := NewQueue[int]()
	for i := 0; i < 200; i++ {
		q.Push(i)
	}
	for i := 0; i < 90; i++ { // head 90 of 200: below half, no compaction yet
		q.PopFront()
	}
	if err := q.ApplyRemote([]ot.Op{ot.SeqDelete{Pos: 1, N: 80}}); err != nil {
		t.Fatal(err)
	}
	if q.head != 0 {
		t.Fatalf("consumed prefix kept: head %d", q.head)
	}
	if !reflect.DeepEqual(q.Values(), want) {
		t.Fatalf("values %v, want %v", q.Values(), want)
	}
}

// seqModel applies a sequence op to the plain-slice model.
func seqModel(m []int, op ot.Op) []int {
	switch v := op.(type) {
	case ot.SeqInsert:
		for i, e := range v.Elems {
			m = slices.Insert(m, v.Pos+i, e.(int))
		}
	case ot.SeqDelete:
		m = slices.Delete(m, v.Pos, v.Pos+v.N)
	case ot.SeqSet:
		m[v.Pos] = v.Elem.(int)
	}
	return m
}

// seqOpsAt returns one remote insert, delete and set at position p of a
// length-n sequence (only the insert when p == n).
func seqOpsAt(r *rand.Rand, p, n int) []ot.Op {
	ops := []ot.Op{ot.SeqInsert{Pos: p, Elems: []any{r.Intn(1000), r.Intn(1000)}}}
	if p < n {
		ops = append(ops, ot.SeqDelete{Pos: p, N: 1 + r.Intn(n-p)}, ot.SeqSet{Pos: p, Elem: r.Intn(1000)})
	}
	return ops
}

// seqUnderTest is what the slice-model tests observe of List and Queue.
type seqUnderTest interface {
	Mergeable
	Values() []int
}

// sliceModelHelpers returns the checks shared by the slice-model tests:
// check demands c's values equal the model m and its fingerprint that of
// fresh; remote applies op to c and returns the model after it; randomOp
// picks a remote op valid on a length-n sequence.
func sliceModelHelpers(t *testing.T, r *rand.Rand) (
	check func(c seqUnderTest, m []int, fresh seqUnderTest),
	remote func(c seqUnderTest, m []int, op ot.Op) []int,
	randomOp func(n int) ot.Op,
) {
	check = func(c seqUnderTest, m []int, fresh seqUnderTest) {
		t.Helper()
		if got := c.Values(); !slices.Equal(got, m) {
			t.Fatalf("%T values %v, model %v", c, got, m)
		}
		if c.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("%T fingerprint differs from a fresh container with values %v", c, m)
		}
	}
	remote = func(c seqUnderTest, m []int, op ot.Op) []int {
		t.Helper()
		if err := c.ApplyRemote([]ot.Op{op}); err != nil {
			t.Fatalf("%T apply %v: %v", c, op, err)
		}
		return seqModel(m, op)
	}
	randomOp = func(n int) ot.Op {
		ops := seqOpsAt(r, r.Intn(n+1), n)
		return ops[r.Intn(len(ops))]
	}
	return check, remote, randomOp
}

// TestFastListMatchesList drives List beside a plain []int model: random
// local edits, remote ops at every position, clones and adopts that then
// diverge. After every step the values must equal the model and the
// fingerprint that of a list freshly built from it.
func TestFastListMatchesList(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check, remote, randomOp := sliceModelHelpers(t, r)
	edit := func(l *List[int], m []int) []int {
		n, v := len(m), r.Intn(1000)
		switch {
		case n == 0 || r.Intn(3) == 0:
			i := r.Intn(n + 1)
			l.Insert(i, v, v+1)
			return slices.Insert(m, i, v, v+1)
		case r.Intn(2) == 0:
			i := r.Intn(n)
			k := min(1+r.Intn(3), n-i)
			l.DeleteN(i, k)
			return slices.Delete(m, i, i+k)
		default:
			i := r.Intn(n)
			l.Set(i, v)
			m[i] = v
			return m
		}
	}
	for trial := 0; trial < 40; trial++ {
		l, lm := NewList[int](), []int(nil)
		for step := 0; step < 60; step++ {
			lm = edit(l, lm)
			lm = remote(l, lm, randomOp(len(lm)))
			check(l, lm, NewList(lm...))
			if step%20 != 0 {
				continue
			}
			for p := 0; p <= len(lm); p++ {
				for _, op := range seqOpsAt(r, p, len(lm)) {
					c := l.CloneValue().(*List[int])
					cm := remote(c, slices.Clone(lm), op)
					check(c, cm, NewList(cm...))
				}
			}
			// A clone and an adopter diverge from the original.
			lc, la := l.CloneValue().(*List[int]), NewList(-1)
			if la.AdoptFrom(l) != nil {
				t.Fatal("adopt failed")
			}
			lcm, lam := edit(lc, slices.Clone(lm)), edit(la, slices.Clone(lm))
			lm = edit(l, lm)
			check(lc, lcm, NewList(lcm...))
			check(la, lam, NewList(lam...))
			check(l, lm, NewList(lm...))
			if r.Intn(2) == 0 { // carry on with the clone
				l, lm = lc, lcm
			}
		}
	}
}

// TestFastQueueMatchesQueue drives Queue beside a plain []int model:
// pushes and pops, remote ops at every position on a queue whose consumed
// prefix reaches 64 (so compaction runs), clones and adopts that then
// diverge. After every step the values must equal the model and the
// fingerprint that of a queue freshly built from it.
func TestFastQueueMatchesQueue(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	check, remote, randomOp := sliceModelHelpers(t, r)
	edit := func(q *Queue[int], m []int) []int {
		if len(m) == 0 || r.Intn(2) == 0 {
			v := r.Intn(1000)
			q.Push(v)
			return append(m, v)
		}
		if v, ok := q.PopFront(); !ok || v != m[0] {
			t.Fatalf("PopFront = %d/%v, model front %d", v, ok, m[0])
		}
		return m[1:]
	}
	for trial := 0; trial < 40; trial++ {
		q := NewQueue[int]()
		for i := 0; i < 200; i++ {
			q.Push(i)
		}
		for i := 0; i < 64+r.Intn(32); i++ {
			q.PopFront()
		}
		qm := q.Values()
		for step := 0; step < 60; step++ {
			qm = edit(q, qm)
			qm = remote(q, qm, randomOp(len(qm)))
			check(q, qm, NewQueue(qm...))
			if step%20 != 0 {
				continue
			}
			for p := 0; p <= len(qm); p++ {
				for _, op := range seqOpsAt(r, p, len(qm)) {
					c := q.CloneValue().(*Queue[int])
					cm := remote(c, slices.Clone(qm), op)
					check(c, cm, NewQueue(cm...))
				}
			}
			// A clone and an adopter diverge from the original.
			qc, qa := q.CloneValue().(*Queue[int]), NewQueue(-1)
			if qa.AdoptFrom(q) != nil {
				t.Fatal("adopt failed")
			}
			qcm, qam := edit(qc, slices.Clone(qm)), edit(qa, slices.Clone(qm))
			qm = edit(q, qm)
			check(qc, qcm, NewQueue(qcm...))
			check(qa, qam, NewQueue(qam...))
			check(q, qm, NewQueue(qm...))
			if r.Intn(2) == 0 { // carry on with the adopter
				q, qm = qa, qam
			}
		}
	}
}

// TestListMergePropertyReplay drives random mutations on parent and child
// copies and checks the runtime invariant: replaying the parent's committed
// history from the spawn-time state reproduces the merged state.
func TestListMergePropertyReplay(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		parent := NewList[int]()
		for i := 0; i < r.Intn(6); i++ {
			parent.Append(r.Intn(100))
		}
		parent.Log().Commit(parent.Log().TakeLocal())
		baseVals := parent.Values()
		baseVer := parent.Log().CommittedLen()

		childM, base := spawnCopy(parent)
		child := childM.(*List[int])

		mutate := func(l *List[int]) {
			for i := 0; i < r.Intn(5); i++ {
				switch n := l.Len(); {
				case n == 0 || r.Intn(3) == 0:
					l.Insert(r.Intn(n+1), r.Intn(100))
				case r.Intn(2) == 0:
					l.Delete(r.Intn(n))
				default:
					l.Set(r.Intn(n), r.Intn(100))
				}
			}
		}
		mutate(parent)
		mutate(child)
		mergeInto(t, parent, child, base)

		// Replay committed history since the pre-spawn version.
		replay := NewList[int](baseVals...)
		if err := replay.ApplyRemote(parent.Log().CommittedSince(baseVer)); err != nil {
			t.Logf("seed %d: replay error: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(replay.Values(), parent.Values()) {
			t.Logf("seed %d: replay=%v merged=%v", seed, replay.Values(), parent.Values())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}
