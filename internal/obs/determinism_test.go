package obs_test

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/testutil"
)

// traceOutcome reduces a traced run to its observable outcome: the
// span-tree fingerprint mixed with the exported counter set.
func traceOutcome(tr *obs.Tracer, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	fp := tr.Tree().Fingerprint()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(fp >> (8 * i))
	}
	h.Write(b[:])
	// The exported counter set ("span.merge", "ops.transform", ...) must be
	// as reproducible as the tree itself.
	h.Write([]byte(tr.Counters().String()))
	return h.Sum64(), nil
}

// tracedProgram is a deterministic program covering the span-emitting
// surface of the task runtime: fan-out spawns, a nested spawn, sync
// round-trips, and an abort. It returns the tracer that recorded it.
func tracedProgram() (*obs.Tracer, error) {
	tr := obs.New()
	l := mergeable.NewList(1, 2, 3)
	c := mergeable.NewCounter(0)
	err := task.RunWith(task.RunConfig{Obs: tr}, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
		for i := 0; i < 4; i++ {
			i := i
			ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
				d[0].(*mergeable.List[int]).Append(10 + i)
				d[1].(*mergeable.Counter).Inc()
				if i == 0 {
					// One nested spawn, so the tree has depth > 1.
					ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
						d[0].(*mergeable.List[int]).Append(100)
						return nil
					}, d...)
					return ctx.MergeAll()
				}
				return nil
			}, d...)
		}
		// One child that syncs in a loop until aborted — the sync and abort
		// span paths.
		h := ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			for {
				d[1].(*mergeable.Counter).Inc()
				if err := ctx.Sync(); err != nil {
					return nil
				}
			}
		}, d...)
		for i := 0; i < 3; i++ {
			if err := ctx.MergeAllFromSet([]*task.Task{h}); err != nil {
				return err
			}
		}
		h.Abort()
		return ctx.MergeAll()
	}, l, c)
	return tr, err
}

// randomTree runs a seed-shaped task tree — each task edits a list, a
// text and a counter, spawns up to two children and merges them
// explicitly or implicitly — under a tracer and returns the tracer.
func randomTree(seed int64) (*obs.Tracer, error) {
	var body func(seed int64, depth int) task.Func
	body = func(seed int64, depth int) task.Func {
		return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			r := rand.New(rand.NewSource(seed))
			l, tx, c := data[0].(*mergeable.List[int]), data[1].(*mergeable.Text), data[2].(*mergeable.Counter)
			for i, n := 0, r.Intn(5); i < n; i++ {
				switch r.Intn(4) {
				case 0:
					l.Insert(r.Intn(l.Len()+1), r.Intn(100))
				case 1:
					if l.Len() > 0 {
						l.Delete(r.Intn(l.Len()))
					}
				case 2:
					tx.Insert(r.Intn(tx.Len()+1), string(rune('a'+r.Intn(26))))
				default:
					c.Add(int64(r.Intn(20) - 10))
				}
			}
			if depth > 0 {
				for k, kids := 0, r.Intn(3); k < kids; k++ {
					ctx.Spawn(body(seed*7919+int64(k+1), depth-1), data...)
				}
				if r.Intn(2) == 0 {
					return ctx.MergeAll()
				}
			}
			return nil
		}
	}
	tr := obs.New()
	data := []mergeable.Mergeable{mergeable.NewList[int](), mergeable.NewText("s"), mergeable.NewCounter(0)}
	return tr, task.RunWith(task.RunConfig{Obs: tr}, body(seed, 3), data...)
}

// TestSpanTreeDeterministicAcrossProcs is the observability determinism
// guarantee in executable form: with tracing enabled, repeated runs of a
// deterministic program produce bit-identical span trees and counter sets
// on GOMAXPROCS 1 and 4 alike — the fixed tracedProgram and a few random
// tree shapes. Durations differ every run; they are excluded from
// identity, which is exactly what the fingerprint checks.
func TestSpanTreeDeterministicAcrossProcs(t *testing.T) {
	testutil.SameAcrossProcs(t, 8, []int{1, 4}, func() (uint64, error) { return traceOutcome(tracedProgram()) })
	for _, seed := range []int64{1, 2, 3, 7, 42, 1 << 40} {
		testutil.SameAcrossProcs(t, 4, []int{1, 4}, func() (uint64, error) { return traceOutcome(randomTree(seed)) })
	}
}

// TestTracedMatchesUntraced: tracing must observe, not perturb. The final
// merged structures of a traced run equal those of an untraced run.
func TestTracedMatchesUntraced(t *testing.T) {
	run := func(tr *obs.Tracer) (string, int64) {
		l := mergeable.NewList[int]()
		c := mergeable.NewCounter(0)
		err := task.RunWith(task.RunConfig{Obs: tr}, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			for i := 0; i < 3; i++ {
				i := i
				ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					d[0].(*mergeable.List[int]).Append(i)
					d[1].(*mergeable.Counter).Add(int64(i))
					return nil
				}, d...)
			}
			return ctx.MergeAll()
		}, l, c)
		if err != nil {
			t.Fatal(err)
		}
		return l.String(), c.Value()
	}
	tracedList, tracedCount := run(obs.New())
	plainList, plainCount := run(nil)
	if tracedList != plainList || tracedCount != plainCount {
		t.Fatalf("tracing perturbed the run: %q/%d vs %q/%d",
			tracedList, tracedCount, plainList, plainCount)
	}
}
