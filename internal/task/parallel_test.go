package task

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mergeable"
)

// parallelWorkload runs a spawn/merge tree over several structures and
// returns the combined fingerprint of the final states. The workload mixes
// the cases the merge must keep deterministic whatever runs beside it:
// multiple structures per child, concurrent parent edits (non-empty server
// histories), sync round-trips (repeated merges of one child) and nested
// spawns.
func parallelWorkload(t *testing.T) uint64 {
	t.Helper()
	const structs = 6
	data := make([]mergeable.Mergeable, structs)
	for i := range data {
		l := mergeable.NewList[int]()
		for k := 0; k < 8; k++ {
			l.Append(k + i)
		}
		data[i] = l
	}
	err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
		ch := ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
			for round := 0; round < 3; round++ {
				for j, m := range d {
					l := m.(*mergeable.List[int])
					l.Set((round+j)%8, 100*round+j)
					l.Append(round)
					l.Delete(0)
				}
				if err := ctx.Sync(); err != nil {
					return err
				}
			}
			return nil
		}, d...)
		grand := ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
			inner := ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				for _, m := range d {
					m.(*mergeable.List[int]).Append(-1)
				}
				return nil
			}, d[0], d[1])
			for j, m := range d {
				m.(*mergeable.List[int]).Set(j%8, -j)
			}
			return ctx.MergeAllFromSet([]*Task{inner})
		}, d...)
		// Concurrent parent edits so children transform against non-empty
		// server histories.
		for j, m := range d {
			l := m.(*mergeable.List[int])
			l.Set((j+1)%8, 7*j)
			l.Append(42)
		}
		return ctx.MergeAllFromSet([]*Task{ch, grand})
	}, data...)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]uint64, structs)
	for i, m := range data {
		fps[i] = m.Fingerprint()
	}
	return mergeable.CombineFingerprints(fps...)
}

// aliasWorkload binds the same parent structure at two data positions —
// the one cross-position dependency of the transform step — plus a
// distinct structure, and returns the final fingerprint.
func aliasWorkload(t *testing.T) uint64 {
	t.Helper()
	shared := mergeable.NewList[int]()
	other := mergeable.NewList[int]()
	for k := 0; k < 8; k++ {
		shared.Append(k)
		other.Append(10 * k)
	}
	err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
		// d[0] and d[1] are independent copies of the same parent
		// structure; both contributions land in it at merge time, the
		// second transformed against the first's pending operations.
		ch := ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
			d[0].(*mergeable.List[int]).Append(1)
			d[1].(*mergeable.List[int]).Append(2)
			d[2].(*mergeable.List[int]).Set(0, -1)
			d[0].(*mergeable.List[int]).Set(3, 33)
			d[1].(*mergeable.List[int]).Set(5, 55)
			return nil
		}, d[0], d[0], d[1])
		d[0].(*mergeable.List[int]).Append(9)
		return ctx.MergeAllFromSet([]*Task{ch})
	}, shared, other)
	if err != nil {
		t.Fatal(err)
	}
	return mergeable.CombineFingerprints(shared.Fingerprint(), other.Fingerprint())
}

// atProcs runs f at GOMAXPROCS 1 and 4, restoring the setting afterwards.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		f(t)
		runtime.GOMAXPROCS(prev)
	}
}

// The fingerprints both workloads produced before the transform worker pool
// was deleted, with the pool on and off. The merge is one inline path now;
// what it computes must not have moved.
const (
	goldenParallelWorkload = 0xcd3a0a89c5b5ada3
	goldenAliasWorkload    = 0x7bd2eab707e50730
)

// TestParallelMergeDeterminism pins the merge result of a multi-structure
// spawn/sync/nested-spawn tree to one golden fingerprint, whatever
// GOMAXPROCS and however the tasks interleave.
func TestParallelMergeDeterminism(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for run := 0; run < 6; run++ {
			if got := parallelWorkload(t); got != goldenParallelWorkload {
				t.Fatalf("GOMAXPROCS=%d run %d: fingerprint %#x, want %#x", runtime.GOMAXPROCS(0), run, got, uint64(goldenParallelWorkload))
			}
		}
	})
}

// TestParallelMergeAliasing pins structure aliasing (one Mergeable at
// several data positions): the later position transforms against the
// earlier one's pending operations.
func TestParallelMergeAliasing(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		if got := aliasWorkload(t); got != goldenAliasWorkload {
			t.Errorf("GOMAXPROCS=%d: aliased fingerprint %#x, want %#x", runtime.GOMAXPROCS(0), got, uint64(goldenAliasWorkload))
		}
	})
}

func appendTo(m mergeable.Mergeable, v int) { m.(*mergeable.List[int]).Append(v) }

// TestAliasedWideBinding binds one structure at the first and last of many
// positions, on both sides of bindsAlias's scan/map switch: the child is
// flagged once at Spawn and its two contributions chain in position order
// behind the parent's concurrent edit.
func TestAliasedWideBinding(t *testing.T) {
	for _, fillers := range []int{20, 80} {
		x := mergeable.NewList(0, 1, 2)
		args := []mergeable.Mergeable{x}
		for i := 0; i < fillers; i++ {
			args = append(args, mergeable.NewList(i))
		}
		var flagged, plain bool
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			bound := append(append([]mergeable.Mergeable{}, d...), d[0])
			ch := ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				appendTo(d[len(d)-1], 20)
				appendTo(d[0], 10)
				appendTo(d[1], 11)
				return nil
			}, bound...)
			other := ctx.Spawn(func(*Ctx, []mergeable.Mergeable) error { return nil }, d...)
			flagged, plain = ch.aliased, other.aliased
			appendTo(d[0], 9)
			return ctx.MergeAll()
		}, args...)
		if err != nil {
			t.Fatal(err)
		}
		if !flagged || plain {
			t.Errorf("%d fillers: aliased child flagged %v, distinct child flagged %v", fillers, flagged, plain)
		}
		if got, want := x.Values(), []int{0, 1, 2, 9, 10, 20}; !reflect.DeepEqual(got, want) {
			t.Errorf("%d fillers: shared list %v, want %v", fillers, got, want)
		}
		if got, want := args[1].(*mergeable.List[int]).Values(), []int{0, 11}; !reflect.DeepEqual(got, want) {
			t.Errorf("%d fillers: first filler %v, want %v", fillers, got, want)
		}
	}
}

// TestAliasedCloneInheritsChaining: a clone shares its sibling's bindings,
// so it inherits the aliasing answer and its merges chain the same way.
func TestAliasedCloneInheritsChaining(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		x := mergeable.NewList(0)
		var sib *Task
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				sib = ctx.Clone(func(ctx *Ctx, d []mergeable.Mergeable) error {
					if err := ctx.Sync(); err != nil {
						return err
					}
					appendTo(d[1], 2)
					appendTo(d[0], 1)
					return nil
				})
				return nil
			}, d[0], d[0])
			return ctx.MergeAll()
		}, x)
		if err != nil {
			t.Fatal(err)
		}
		if !sib.aliased {
			t.Error("clone of an aliased child is not flagged aliased")
		}
		if got, want := x.Values(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: shared list %v, want %v", runtime.GOMAXPROCS(0), got, want)
		}
	})
}

// TestAliasedConditionPreview: positions bound to one parent structure
// preview one copy of it, holding both contributions chained in position
// order behind the parent's own edit — the state an accepted merge leaves.
// A rejection drops both.
func TestAliasedConditionPreview(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		x := mergeable.NewList(0)
		var seen [][]int
		spawn := func(ctx *Ctx, d []mergeable.Mergeable) {
			ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				appendTo(d[0], 1)
				appendTo(d[1], 2)
				return nil
			}, d[0], d[0])
		}
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			spawn(ctx, d)
			appendTo(d[0], 9)
			err := ctx.MergeAll(WithCondition(func(pv []mergeable.Mergeable) bool {
				for _, m := range pv {
					seen = append(seen, m.(*mergeable.List[int]).Values())
				}
				return false
			}))
			if !errors.Is(err, ErrMergeRejected) {
				t.Errorf("rejected merge returned %v", err)
			}
			if got, want := x.Values(), []int{0, 9}; !reflect.DeepEqual(got, want) {
				t.Errorf("after the rejected merge: %v, want %v", got, want)
			}
			spawn(ctx, d)
			return ctx.MergeAll(WithCondition(func([]mergeable.Mergeable) bool { return true }))
		}, x)
		if err != nil {
			t.Fatal(err)
		}
		if want := [][]int{{0, 9, 1, 2}, {0, 9, 1, 2}}; !reflect.DeepEqual(seen, want) {
			t.Errorf("preview saw %v, want %v", seen, want)
		}
		if got, want := x.Values(), []int{0, 9, 1, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: shared list %v, want %v", runtime.GOMAXPROCS(0), got, want)
		}
	})
}

// TestAliasedChildSyncsTwice: every Sync of an aliased child chains its
// two contributions afresh, on top of what the earlier rounds and the
// parent committed in between.
func TestAliasedChildSyncsTwice(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		x := mergeable.NewList(0)
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			ch := []*Task{ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				for round := 1; round <= 2; round++ {
					appendTo(d[0], 10*round+1)
					appendTo(d[1], 10*round+2)
					if err := ctx.Sync(); err != nil {
						return err
					}
					if !reflect.DeepEqual(d[0].(*mergeable.List[int]).Values(), d[1].(*mergeable.List[int]).Values()) {
						t.Errorf("round %d: the two copies of one structure differ after Sync", round)
					}
				}
				return nil
			}, d[0], d[0])}
			for round := 1; round <= 3; round++ { // two Syncs and the completion
				appendTo(d[0], -round)
				if err := ctx.MergeAllFromSet(ch); err != nil {
					return err
				}
			}
			return nil
		}, x)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := x.Values(), []int{0, -1, 11, 12, -2, 21, 22, -3}; !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: shared list %v, want %v", runtime.GOMAXPROCS(0), got, want)
		}
	})
}
