package task

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/obs"

	"repro/internal/testutil"
)

// mergeSpans renders the root track's merge spans as "<child> <outcome>
// ops=<n>", in merge order.
func mergeSpans(tr *obs.Tracer) []string {
	var out []string
	for _, track := range tr.Tree().Tracks {
		for _, s := range track.Spans {
			if track.Key == "r" && s.Kind == obs.KindMerge {
				out = append(out, fmt.Sprintf("%s ops=%d", s.Name, s.Ops))
			}
		}
	}
	return out
}

// tracedScenario spawns children with every outcome class: a clean merge,
// sync merges, a failure, an abort and a condition rejection.
func tracedScenario(t *testing.T) []string {
	t.Helper()
	c := mergeable.NewCounter(0)
	tr := obs.New()
	err := RunWith(RunConfig{Obs: tr}, func(ctx *Ctx, data []mergeable.Mergeable) error {
		cnt := data[0].(*mergeable.Counter)

		ok := ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.Counter).Inc()
			return nil
		}, cnt)
		syncer := ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.Counter).Inc()
			if err := ctx.Sync(); err != nil {
				return err
			}
			data[0].(*mergeable.Counter).Inc()
			return nil
		}, cnt)
		failer := ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			return errors.New("boom")
		}, cnt)
		if err := ctx.MergeAllFromSet([]*Task{ok, syncer}); err != nil {
			return err
		}
		if err := ctx.MergeAllFromSet([]*Task{syncer}); err != nil {
			return err
		}
		_ = ctx.MergeAllFromSet([]*Task{failer}) // expected failure

		rejected := ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.Counter).Add(1000)
			return nil
		}, cnt)
		_ = ctx.MergeAllFromSet([]*Task{rejected}, WithCondition(func(p []mergeable.Mergeable) bool {
			return p[0].(*mergeable.Counter).Value() < 100
		}))

		aborted := ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			for {
				if err := ctx.Sync(); err != nil {
					return err
				}
			}
		}, cnt)
		aborted.Abort()
		if err := ctx.MergeAll(); err != nil {
			return err
		}
		return ctx.MergeAll()
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	return mergeSpans(tr)
}

// TestRunTracedRecordsOutcomes: the merge spans name every outcome class
// with its applied-op count, sync merges included.
func TestRunTracedRecordsOutcomes(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		want := []string{
			"r/0 merged ops=1", "r/1 merged ops=1", "r/1 merged ops=1", "r/2 failed ops=0",
			"r/3 rejected ops=0", "r/4 aborted ops=0", "r/4 aborted ops=0",
		}
		if got := tracedScenario(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge spans = %q, want %q", got, want)
		}
	})
}

// TestTraceCountsOps checks that applied-operation counts reach the
// merge span — and, incidentally, that adjacent appends were compacted into a
// single operation while the unrelated delete stayed separate.
func TestTraceCountsOps(t *testing.T) {
	l := mergeable.NewList(9)
	tr := obs.New()
	err := RunWith(RunConfig{Obs: tr}, func(ctx *Ctx, data []mergeable.Mergeable) error {
		ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			cl := data[0].(*mergeable.List[int])
			cl.Append(1, 2, 3) // one insert op
			cl.Append(4)       // compacted into the first
			cl.Delete(0)       // separate op
			return nil
		}, data[0])
		return ctx.MergeAll()
	}, l)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergeSpans(tr); !reflect.DeepEqual(got, []string{"r/0 merged ops=2"}) {
		t.Fatalf("merge spans = %q, want one merge applying 2 compacted ops", got)
	}
}
