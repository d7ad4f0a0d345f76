package mergeable_test

import (
	"fmt"

	"repro/internal/mergeable"
	"repro/internal/ot"
)

// The operation-centric view: a structure records what was done to it.
func ExampleList() {
	l := mergeable.NewList(1, 2, 3)
	l.Append(4)
	l.Delete(0)
	fmt.Println(l.Values())
	for _, op := range l.Log().LocalOps() {
		fmt.Println(op)
	}
	// Output:
	// [2 3 4]
	// ins(3,4)
	// del(0)
}

// Merging two copies' concurrent operations with operational
// transformation — what the runtime does for every structure at every
// merge (simplified to one structure and one child).
func ExampleMergeable() {
	parent := mergeable.NewList("a", "b", "c")

	// Spawn: flush, remember the base version, deep-copy.
	parent.Log().Commit(parent.Log().TakeLocal())
	base := parent.Log().CommittedLen()
	child := parent.CloneValue().(*mergeable.List[string])

	// Concurrent edits: Figure 1's del(2) and ins(0,d).
	child.Delete(2)
	parent.Insert(0, "d")

	// Merge: transform the child's ops against the unseen history.
	parent.Log().Commit(parent.Log().TakeLocal())
	server := parent.Log().CommittedSince(base)
	transformed := ot.TransformAgainst(child.Log().TakeLocal(), server)
	if err := parent.ApplyRemote(transformed); err != nil {
		panic(err)
	}
	parent.Log().Commit(transformed)

	fmt.Println(parent.Values())
	fmt.Println(transformed[0])
	// Output:
	// [d a b]
	// del(3)
}

// Counters merge by accumulation — the cheapest conflict-free structure.
func ExampleCounter() {
	c := mergeable.NewCounter(10)
	copy1 := c.CloneValue().(*mergeable.Counter)
	copy2 := c.CloneValue().(*mergeable.Counter)
	copy1.Add(5)
	copy2.Add(-3)
	c.ApplyRemote(copy1.Log().TakeLocal())
	c.ApplyRemote(copy2.Log().TakeLocal())
	fmt.Println(c.Value())
	// Output: 12
}

// A Queue shares structure on clone: a copy is O(1) no matter the size.
func ExampleQueue() {
	q := mergeable.NewQueue(1, 2, 3)
	clone := q.CloneValue().(*mergeable.Queue[int])
	clone.Push(4) // does not touch q
	v, _ := q.PopFront()
	fmt.Println(v, q.Values(), clone.Values())
	// Output: 1 [2 3] [1 2 3 4]
}
