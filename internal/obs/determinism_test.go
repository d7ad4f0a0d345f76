package obs_test

import (
	"hash/fnv"
	"testing"

	"repro/internal/detcheck"
	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/task"
)

// tracedWorkload runs tracedProgram and returns its observable outcome:
// the span-tree fingerprint mixed with the exported counter set.
func tracedWorkload() (uint64, error) {
	tr, err := tracedProgram()
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

// TestSpanTreeDeterministicAcrossProcs is the observability determinism
// guarantee in executable form: with tracing enabled, repeated runs of a
// deterministic program produce bit-identical span trees and counter sets
// on GOMAXPROCS 1 and 4 alike. Durations differ every run; they are
// excluded from identity, which is exactly what the fingerprint checks.
func TestSpanTreeDeterministicAcrossProcs(t *testing.T) {
	rep, err := detcheck.CheckAcrossProcs(8, []int{1, 4}, tracedWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic() {
		t.Fatalf("span trees diverged: %s", rep)
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
