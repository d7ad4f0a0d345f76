package task

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/testutil"
)

// deterministicScenario runs a nontrivial task tree with deliberately
// conflicting operations, timing jitter and nested spawns, and returns a
// fingerprint of the final state. Every invocation must produce the same
// fingerprint — this is the paper's headline determinism claim.
func deterministicScenario(jitter bool) uint64 {
	list := mergeable.NewList(0)
	txt := mergeable.NewText("seed")
	cnt := mergeable.NewCounter(0)
	m := mergeable.NewMap[string, int]()

	err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
		l := data[0].(*mergeable.List[int])
		tx := data[1].(*mergeable.Text)
		c := data[2].(*mergeable.Counter)
		mp := data[3].(*mergeable.Map[string, int])

		for i := 0; i < 6; i++ {
			i := i
			ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				if jitter {
					time.Sleep(time.Duration((i*7)%3) * time.Millisecond)
				}
				cl := data[0].(*mergeable.List[int])
				ct := data[1].(*mergeable.Text)
				cc := data[2].(*mergeable.Counter)
				cm := data[3].(*mergeable.Map[string, int])

				cl.Insert(0, i)             // all children fight for index 0
				cl.Append(100 + i)          //
				ct.Insert(0, fmt.Sprint(i)) // conflicting text edits
				cc.Add(int64(i))            // commuting increments
				cm.Set("shared", i)         // conflicting map writes
				cm.Set(fmt.Sprint(i), i)    // independent map writes

				// A nested child per task, merged implicitly.
				ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
					data[2].(*mergeable.Counter).Add(1000)
					return nil
				}, cl, ct, cc, cm)
				return nil
			}, l, tx, c, mp)
		}
		l.Append(-1) // the parent edits concurrently too
		return ctx.MergeAll()
	}, list, txt, cnt, m)
	if err != nil {
		panic(err)
	}
	return mergeable.CombineFingerprints(
		list.Fingerprint(), txt.Fingerprint(), cnt.Fingerprint(), m.Fingerprint())
}

// TestDeterminismAcrossRuns runs the scenario many times and demands
// byte-identical outcomes.
func TestDeterminismAcrossRuns(t *testing.T) {
	want := deterministicScenario(false)
	for i := 0; i < 25; i++ {
		if got := deterministicScenario(false); got != want {
			t.Fatalf("run %d: fingerprint %x != %x", i, got, want)
		}
	}
	// Timing jitter must not change the result either.
	for i := 0; i < 10; i++ {
		if got := deterministicScenario(true); got != want {
			t.Fatalf("jittered run %d: fingerprint %x != %x", i, got, want)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS pins the "regardless of the number of
// cores" half of the claim.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	want := deterministicScenario(false)
	for _, procs := range []int{1, 2, 4, orig} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			if got := deterministicScenario(false); got != want {
				t.Fatalf("GOMAXPROCS=%d run %d: fingerprint %x != %x", procs, i, got, want)
			}
		}
	}
}

// TestBatchedEngineDeterminism runs the conflict-heavy scenario through
// the batched run-length transform engine across GOMAXPROCS values and
// demands one fingerprint from all of them. The repeated runs recycle
// pooled frames, shells and merge scratch, so any cross-run contamination
// from pooling shows up as a fingerprint mismatch (and, under -race, as a
// report). ot's differential tests pin the engine to the pairwise one op
// for op.
func TestBatchedEngineDeterminism(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	want := deterministicScenario(false)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			if got := deterministicScenario(i%2 == 1); got != want {
				t.Fatalf("GOMAXPROCS=%d run %d: fingerprint %x != %x", procs, i, got, want)
			}
		}
	}
}

// TestListing2NonDeterministic demonstrates the paper's Listing 2: the
// mutex-based version's outcome depends on timing. We steer the schedule
// explicitly (the paper's "DoSomething()" delay) to exhibit both outcomes,
// which is exactly the schedule-dependence Spawn & Merge eliminates.
func TestListing2NonDeterministic(t *testing.T) {
	runMutexVersion := func(parentDelay time.Duration) []int {
		mutex, wait := newChMutex(), newChMutex()
		list := []int{1, 2, 3}
		wait.Lock()
		go func() {
			mutex.Lock()
			defer mutex.Unlock()
			defer wait.Unlock()
			list = append(list, 5)
		}()
		time.Sleep(parentDelay) // DoSomething()
		mutex.Lock()
		list = append(list, 4)
		mutex.Unlock()
		wait.Lock()
		return list
	}
	// With a long enough delay the child wins the race; without it the
	// parent (almost always) does. Both orders are legal executions of the
	// same program.
	slow := runMutexVersion(50 * time.Millisecond)
	if !(slow[3] == 5 && slow[4] == 4) {
		t.Skipf("scheduler did not exhibit the alternative order (got %v); inherently timing dependent", slow)
	}
	fast := runMutexVersion(0)
	if fast[3] == 5 && fast[4] == 4 {
		t.Logf("note: child won even without delay: %v", fast)
	}
}

// chMutex is a tiny channel-based mutex that, unlike sync.Mutex, permits
// locking in one goroutine and unlocking in another — which is what
// Listing 2's `wait` mutex does.
type chMutex struct{ ch chan struct{} }

func newChMutex() *chMutex { return &chMutex{ch: make(chan struct{}, 1)} }
func (m *chMutex) Lock()   { m.ch <- struct{}{} }
func (m *chMutex) Unlock() { <-m.ch }

// TestNoDeadlockMergeSyncCycle exercises the one wait cycle the model
// permits — parent waiting in Merge while the child waits in Sync — at
// scale and depth; per Section IV.B it must always resolve.
func TestNoDeadlockMergeSyncCycle(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		for round := 0; round < 20; round++ {
			c := mergeable.NewCounter(0)
			err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
				cnt := data[0].(*mergeable.Counter)
				handles := make([]*Task, 8)
				for i := range handles {
					handles[i] = ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
						for s := 0; s < 5; s++ {
							data[0].(*mergeable.Counter).Inc()
							if err := ctx.Sync(); err != nil {
								return err
							}
						}
						return nil
					}, cnt)
				}
				for s := 0; s < 6; s++ {
					if err := ctx.MergeAll(); err != nil {
						return err
					}
				}
				return nil
			}, c)
			if err != nil {
				t.Fatal(err)
			}
			if c.Value() != 40 {
				t.Fatalf("round %d: counter = %d, want 40", round, c.Value())
			}
		}
	})
}

// TestNoDeadlockDeepTree spawns a deep chain of tasks, each syncing with
// its parent while the parent merges — a stack of merge/sync cycles.
func TestNoDeadlockDeepTree(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		c := mergeable.NewCounter(0)
		var descend func(depth int) Func
		descend = func(depth int) Func {
			return func(ctx *Ctx, data []mergeable.Mergeable) error {
				cnt := data[0].(*mergeable.Counter)
				cnt.Inc()
				if depth > 0 {
					ctx.Spawn(descend(depth-1), cnt)
					if err := ctx.Sync(); err != nil && err != ErrRootSync {
						return err
					}
				}
				return nil
			}
		}
		err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
			ctx.Spawn(descend(30), data[0])
			return ctx.MergeAll()
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value() != 31 {
			t.Fatalf("counter = %d, want 31", c.Value())
		}
	})
}

// TestHistoryTrimmedOnLongSyncLoop guards against unbounded operation-log
// growth: after thousands of sync rounds the structure's committed history
// must stay short because every round advances the child's base.
func TestHistoryTrimmedOnLongSyncLoop(t *testing.T) {
	testutil.WithTimeout(t, 60*time.Second, func() {
		c := mergeable.NewCounter(0)
		const rounds = 2000
		err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
			cnt := data[0].(*mergeable.Counter)
			h := ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				for {
					data[0].(*mergeable.Counter).Inc()
					if err := ctx.Sync(); err != nil {
						return nil
					}
				}
			}, cnt)
			for i := 0; i < rounds; i++ {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			h.Abort()
			for len(ctx.task.liveChildren()) > 0 {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			return nil
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value() < rounds-1 {
			t.Fatalf("counter = %d, want ~%d", c.Value(), rounds)
		}
		// The version number keeps growing but the retained slice must not.
		if kept := c.Log().RetainedLen(); kept > 100 {
			t.Fatalf("history not trimmed: %d ops retained after %d rounds", kept, rounds)
		}
		if c.Log().CommittedLen() < rounds {
			t.Fatalf("committed version = %d, want >= %d", c.Log().CommittedLen(), rounds)
		}
	})
}

// TestStressManyTasks floods the runtime with short-lived tasks under the
// race detector.
func TestStressManyTasks(t *testing.T) {
	testutil.WithTimeout(t, 60*time.Second, func() {
		c := mergeable.NewCounter(0)
		err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
			cnt := data[0].(*mergeable.Counter)
			for wave := 0; wave < 10; wave++ {
				for i := 0; i < 50; i++ {
					ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
						data[0].(*mergeable.Counter).Inc()
						return nil
					}, cnt)
				}
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			return nil
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value() != 500 {
			t.Fatalf("counter = %d, want 500", c.Value())
		}
	})
}
