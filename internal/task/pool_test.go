package task

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mergeable"

	"repro/internal/testutil"
)

// TestRunPooledBoundsParallelism verifies at most maxParallel task bodies
// execute simultaneously.
func TestRunPooledBoundsParallelism(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		const limit = 2
		var running, maxRunning atomic.Int64
		err := RunWith(RunConfig{MaxParallel: limit}, func(ctx *Ctx, data []mergeable.Mergeable) error {
			for i := 0; i < 8; i++ {
				ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
					n := running.Add(1)
					for {
						cur := maxRunning.Load()
						if n <= cur || maxRunning.CompareAndSwap(cur, n) {
							break
						}
					}
					time.Sleep(2 * time.Millisecond)
					running.Add(-1)
					return nil
				})
			}
			return ctx.MergeAll()
		})
		if err != nil {
			t.Fatal(err)
		}
		// The root releases its slot while blocked in MergeAll, so up to
		// `limit` children may run at once — never more.
		if got := maxRunning.Load(); got > limit {
			t.Fatalf("observed %d concurrent tasks, pool limit is %d", got, limit)
		}
	})
}

// TestRunPooledMatchesRun pins that pooling changes scheduling only:
// results are identical to the unbounded runtime, for every pool size.
func TestRunPooledMatchesRun(t *testing.T) {
	testutil.WithTimeout(t, 60*time.Second, func() {
		scenario := func(run func(fn Func, data ...mergeable.Mergeable) error) []int {
			l := mergeable.NewList[int]()
			err := run(func(ctx *Ctx, data []mergeable.Mergeable) error {
				lst := data[0].(*mergeable.List[int])
				for i := 0; i < 5; i++ {
					i := i
					ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
						data[0].(*mergeable.List[int]).Insert(0, i)
						return nil
					}, lst)
				}
				lst.Append(99)
				return ctx.MergeAll()
			}, l)
			if err != nil {
				t.Fatal(err)
			}
			return l.Values()
		}
		want := scenario(Run)
		for _, pool := range []int{1, 2, 3, 16} {
			pool := pool
			got := scenario(func(fn Func, data ...mergeable.Mergeable) error {
				return RunWith(RunConfig{MaxParallel: pool}, fn, data...)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pool %d: %v != %v", pool, got, want)
			}
		}
	})
}

// TestRunPooledSyncLoops runs the sync-heavy merge cycle under a pool of
// one — the configuration most likely to deadlock if a blocking point
// held its slot.
func TestRunPooledSyncLoops(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		c := mergeable.NewCounter(0)
		err := RunWith(RunConfig{MaxParallel: 1}, func(ctx *Ctx, data []mergeable.Mergeable) error {
			cnt := data[0].(*mergeable.Counter)
			for i := 0; i < 4; i++ {
				ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
					for s := 0; s < 3; s++ {
						data[0].(*mergeable.Counter).Inc()
						if err := ctx.Sync(); err != nil {
							return err
						}
					}
					return nil
				}, cnt)
			}
			for s := 0; s < 4; s++ {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			return nil
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value() != 12 {
			t.Fatalf("counter = %d, want 12", c.Value())
		}
	})
}

// TestRunPooledClamp: a MaxParallel below one leaves the run unbounded.
func TestRunPooledClamp(t *testing.T) {
	if _, err := anyScenario(RunConfig{MaxParallel: -1}, 4); err != nil {
		t.Fatal(err)
	}
}
