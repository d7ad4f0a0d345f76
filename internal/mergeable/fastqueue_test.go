package mergeable

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ot"
)

func TestFastQueueBasics(t *testing.T) {
	q := NewFastQueue[string]()
	if !q.Empty() {
		t.Fatal("new queue should be empty")
	}
	if _, ok := q.PopFront(); ok {
		t.Fatal("pop of empty should report !ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("peek of empty should report !ok")
	}
	q.Push("a")
	q.Push("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %v/%v", v, ok)
	}
	if v, ok := q.PopFront(); !ok || v != "a" {
		t.Fatalf("pop = %v/%v", v, ok)
	}
	if got := q.Values(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("values = %v", got)
	}
	if q.String() != "[b]" {
		t.Fatalf("String() = %q", q.String())
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}

// TestFastQueueMatchesQueue drives identical random operation sequences
// through Queue and FastQueue — including merge-style remote ops — and
// demands identical observable state and fingerprints.
func TestFastQueueMatchesQueue(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slow := NewQueue[int]()
		fast := NewFastQueue[int]()
		for step := 0; step < 400; step++ {
			switch r.Intn(4) {
			case 0, 1:
				v := r.Intn(1000)
				slow.Push(v)
				fast.Push(v)
			case 2:
				v1, ok1 := slow.PopFront()
				v2, ok2 := fast.PopFront()
				if ok1 != ok2 || v1 != v2 {
					t.Logf("seed %d step %d: pop mismatch %v/%v vs %v/%v", seed, step, v1, ok1, v2, ok2)
					return false
				}
			default:
				// Remote op of a shape merging can produce.
				n := slow.Len()
				var op ot.Op
				switch {
				case n == 0 || r.Intn(2) == 0:
					op = ot.SeqInsert{Pos: n, Elems: []any{r.Intn(1000)}}
				case r.Intn(2) == 0:
					op = ot.SeqDelete{Pos: r.Intn(n), N: 1}
				default:
					op = ot.SeqSet{Pos: r.Intn(n), Elem: r.Intn(1000)}
				}
				if err := slow.ApplyRemote([]ot.Op{op}); err != nil {
					t.Logf("seed %d: slow apply: %v", seed, err)
					return false
				}
				if err := fast.ApplyRemote([]ot.Op{op}); err != nil {
					t.Logf("seed %d: fast apply: %v", seed, err)
					return false
				}
			}
			sv := append([]int{}, slow.Values()...)
			fv := append([]int{}, fast.Values()...)
			if !reflect.DeepEqual(sv, fv) {
				t.Logf("seed %d step %d: %v vs %v", seed, step, sv, fv)
				return false
			}
			if slow.Fingerprint() != fast.Fingerprint() {
				t.Logf("seed %d step %d: fingerprints differ for equal values", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFastQueueCloneIsShared(t *testing.T) {
	q := NewFastQueue(1, 2, 3)
	c := q.CloneValue().(*FastQueue[int])
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
	q := NewFastQueue(1)
	if err := q.AdoptFrom(NewCounter(0)); err == nil {
		t.Fatal("foreign adopt should fail")
	}
	src := NewFastQueue(7, 8)
	if err := q.AdoptFrom(src); err != nil || !reflect.DeepEqual(q.Values(), []int{7, 8}) {
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

func TestFastQueueCompaction(t *testing.T) {
	q := NewFastQueue[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n-10; i++ {
		v, ok := q.PopFront()
		if !ok || v != i {
			t.Fatalf("pop %d = %d/%v", i, v, ok)
		}
	}
	if q.Len() != 10 {
		t.Fatalf("len = %d", q.Len())
	}
	// After compaction the internal vector must not retain the consumed
	// prefix; head must have been reset at least once.
	if q.head > q.vec.Len() {
		t.Fatalf("inconsistent state: head %d > vec %d", q.head, q.vec.Len())
	}
	if q.vec.Len() > 600 {
		t.Fatalf("compaction never ran: vec holds %d elements for a queue of 10", q.vec.Len())
	}
}

// TestQueueInteriorDeleteDropsPrefix pins that an interior delete, which
// splices past the consumed prefix, drops that prefix once it dominates,
// as a front pop does, on both queue types.
func TestQueueInteriorDeleteDropsPrefix(t *testing.T) {
	del := []ot.Op{ot.SeqDelete{Pos: 1, N: 80}}
	want := []int{90}
	for i := 171; i < 200; i++ {
		want = append(want, i)
	}
	q, fq := NewQueue[int](), NewFastQueue[int]()
	for i := 0; i < 200; i++ {
		q.Push(i)
		fq.Push(i)
	}
	for i := 0; i < 90; i++ { // head 90 of 200: below half, no compaction yet
		q.PopFront()
		fq.PopFront()
	}
	if err := q.ApplyRemote(del); err != nil {
		t.Fatal(err)
	}
	if err := fq.ApplyRemote(del); err != nil {
		t.Fatal(err)
	}
	if q.head != 0 || fq.head != 0 {
		t.Fatalf("consumed prefix kept: Queue head %d, FastQueue head %d", q.head, fq.head)
	}
	if !reflect.DeepEqual(q.Values(), want) || !reflect.DeepEqual(fq.Values(), want) {
		t.Fatalf("values %v / %v, want %v", q.Values(), fq.Values(), want)
	}
}

// TestFastQueueMergeSemantics replays the producer/consumer and
// concurrent-pop merge scenarios against the COW queue.
func TestFastQueueMergeSemantics(t *testing.T) {
	q := NewFastQueue(1, 2)
	producerM, base := spawnCopy(q)
	producer := producerM.(*FastQueue[int])
	producer.Push(3)
	if v, _ := q.PopFront(); v != 1 {
		t.Fatalf("popped %d", v)
	}
	mergeInto(t, q, producer, base)
	if got := q.Values(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("merged queue = %v", got)
	}

	q2 := NewFastQueue("x", "y")
	c1m, b1 := spawnCopy(q2)
	c2m, b2 := spawnCopy(q2)
	c1m.(*FastQueue[string]).PopFront()
	c2m.(*FastQueue[string]).PopFront()
	mergeInto(t, q2, c1m, b1)
	mergeInto(t, q2, c2m, b2)
	if got := q2.Values(); !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("concurrent pops should collapse: %v", got)
	}
}
