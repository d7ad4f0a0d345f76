package task

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/testutil"
)

// TestCloneHoldsNoPinUntilFirstSync pins the clone half of bounded
// history: a clone that never syncs — the accept loop of a server —
// holds none of the parent's history down, so a syncing sibling's merges
// trim the log to nothing; and when the clone finally does sync, after
// the log lost its last pin and left the tracking set, the refresh gives
// it real copies, pins the base it actually got and re-tracks the log, so
// later trims keep exactly what its next merge transforms against.
func TestCloneHoldsNoPinUntilFirstSync(t *testing.T) {
	testutil.WithTimeout(t, 10*time.Second, func() {
		const rounds = 64
		list := mergeable.NewList[int]()
		cnt := mergeable.NewCounter(0)
		firstSync, write := make(chan struct{}), make(chan struct{})
		released := map[chan struct{}]bool{}
		release := func(c chan struct{}) { // idempotent, so a failing root still frees the clone
			if !released[c] {
				released[c] = true
				close(c)
			}
		}
		idle := func(ctx *Ctx, data []mergeable.Mergeable) error {
			<-firstSync
			if err := ctx.Sync(); err != nil {
				return err
			}
			<-write
			l := data[0].(*mergeable.List[int])
			if l.Len() != rounds+1 || l.Get(0) != -1 {
				return fmt.Errorf("clone's first Sync refreshed to %v", l.Values())
			}
			l.Append(999)
			data[1].(*mergeable.Counter).Inc()
			return nil
		}
		err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
			defer release(firstSync)
			defer release(write)
			lg := list.Log()
			spawner := ctx.Spawn(func(ctx *Ctx, _ []mergeable.Mergeable) error {
				ctx.Clone(idle)
				return nil
			}, data...)
			if err := ctx.MergeAllFromSet([]*Task{spawner}); err != nil {
				return err
			}
			worker := []*Task{ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				for i := 0; i < rounds; i++ {
					data[0].(*mergeable.List[int]).Append(i)
					if err := ctx.Sync(); err != nil {
						return err
					}
				}
				return nil
			}, data...)}
			for i := 0; i < rounds; i++ {
				if err := ctx.MergeAllFromSet(worker); err != nil {
					return err
				}
			}
			if n := lg.RetainedLen(); n > 1 {
				return fmt.Errorf("%d ops retained beside a never-synced clone after %d synced merges, want ≤ 1", n, rounds)
			}
			if err := ctx.MergeAllFromSet(worker); err != nil { // the worker's completion
				return err
			}
			if lg.Pinned() || len(ctx.task.tracked) != 0 {
				return fmt.Errorf("with only the unsynced clone live: pinned=%v tracked=%d, want an unpinned, untracked log", lg.Pinned(), len(ctx.task.tracked))
			}

			list.Insert(0, -1)
			release(firstSync)
			if _, err := ctx.MergeAny(); err != nil { // the clone's first Sync
				return err
			}
			base, pinned := lg.Watermark()
			if !pinned || base != lg.CommittedLen() || len(ctx.task.tracked) != 2 {
				return fmt.Errorf("after the clone's first Sync: pinned=%v at %d (version %d), tracked=%d", pinned, base, lg.CommittedLen(), len(ctx.task.tracked))
			}
			// Two more commits and a trim pass: history from the clone's base
			// on must survive, because its append transforms against it.
			list.Insert(0, -2)
			ctx.Spawn(func(_ *Ctx, data []mergeable.Mergeable) error {
				data[0].(*mergeable.List[int]).Append(7)
				return nil
			}, data...)
			if _, err := ctx.MergeAny(); err != nil {
				return err
			}
			if n := lg.RetainedLen(); n != lg.CommittedLen()-base || n < 2 {
				return fmt.Errorf("retained %d ops above the clone's base %d (version %d)", n, base, lg.CommittedLen())
			}
			release(write)
			_, err := ctx.MergeAny() // the clone's completion
			return err
		}, list, cnt)
		if err != nil {
			t.Error(err)
			return
		}
		want := []int{-2, -1}
		for i := 0; i < rounds; i++ {
			want = append(want, i)
		}
		want = append(want, 7, 999)
		if got := list.Values(); !reflect.DeepEqual(got, want) || cnt.Value() != 1 {
			t.Errorf("final list %v (counter %d), want %v (counter 1)", got, cnt.Value(), want)
		}
	})
}

// TestSpawnOverStaleDataPanics closes the one door through which an
// unsynced clone could have contributed operations: spawning a child over
// its placeholder copies panics like every other use of stale data.
func TestSpawnOverStaleDataPanics(t *testing.T) {
	testutil.WithTimeout(t, 10*time.Second, func() {
		var msg atomic.Value
		err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
			ctx.Spawn(func(ctx *Ctx, _ []mergeable.Mergeable) error {
				ctx.Clone(func(ctx *Ctx, data []mergeable.Mergeable) error {
					defer func() { msg.Store(fmt.Sprint(recover())) }()
					ctx.Spawn(func(*Ctx, []mergeable.Mergeable) error { return nil }, data...)
					return nil
				})
				return nil
			}, data...)
			return ctx.MergeAll()
		}, mergeable.NewCounter(0))
		if err != nil {
			t.Error(err)
		}
		if s, _ := msg.Load().(string); !strings.Contains(s, "stale") {
			t.Errorf("Spawn over a clone's placeholder copies: recovered %q, want the stale-data panic", s)
		}
	})
}

// countingCell is a Counter whose copies count, on one shared tally, how
// often the runtime refreshes any of them.
type countingCell struct {
	*mergeable.Counter
	adopts *atomic.Int64
}

func (c *countingCell) CloneValue() mergeable.Mergeable {
	return &countingCell{Counter: c.Counter.CloneValue().(*mergeable.Counter), adopts: c.adopts}
}

func (c *countingCell) AdoptFrom(src mergeable.Mergeable) error {
	c.adopts.Add(1)
	return c.Counter.AdoptFrom(src.(*countingCell).Counter)
}

// TestSyncRefreshSkipsUnmovedStructures pins the refresh rule: a Sync
// refreshes exactly the positions the child wrote or the parent moved —
// one AdoptFrom for a child that touched one of 32 structures, none for an
// idle round trip — and a rejected Sync still rolls back what the child
// wrote. An aborted Sync refreshes nothing, as before: the task is told to
// unwind.
func TestSyncRefreshSkipsUnmovedStructures(t *testing.T) {
	testutil.WithTimeout(t, 10*time.Second, func() {
		const n = 32
		var adopts atomic.Int64
		data := make([]mergeable.Mergeable, n)
		for i := range data {
			data[i] = &countingCell{Counter: mergeable.NewCounter(0), adopts: &adopts}
		}
		steps := []struct {
			name   string
			child  func(d []mergeable.Mergeable) // before the child's Sync
			parent func(d []mergeable.Mergeable, c *Task) []MergeOption
			err    error // what the child's Sync returns
			adopts int64
			check  func(d []mergeable.Mergeable) error // child, after its Sync
		}{
			{name: "child touched one", child: func(d []mergeable.Mergeable) { d[0].(*countingCell).Inc() }, adopts: 1},
			{name: "nothing moved", adopts: 0},
			{name: "parent moved one", parent: func(d []mergeable.Mergeable, _ *Task) []MergeOption {
				d[5].(*countingCell).Add(10)
				return nil
			}, adopts: 1, check: func(d []mergeable.Mergeable) error {
				if v := d[5].(*countingCell).Value(); v != 10 {
					return fmt.Errorf("copy of the structure the parent moved reads %d, want 10", v)
				}
				return nil
			}},
			{name: "rejected", child: func(d []mergeable.Mergeable) { d[3].(*countingCell).Add(100) },
				parent: func([]mergeable.Mergeable, *Task) []MergeOption {
					return []MergeOption{WithCondition(func([]mergeable.Mergeable) bool { return false })}
				}, err: ErrMergeRejected, adopts: 1, check: func(d []mergeable.Mergeable) error {
					if v := d[3].(*countingCell).Value(); v != 0 {
						return fmt.Errorf("rejected write still reads %d in the child's copy, want 0", v)
					}
					return nil
				}},
			{name: "aborted", child: func(d []mergeable.Mergeable) { d[4].(*countingCell).Inc() },
				parent: func(_ []mergeable.Mergeable, c *Task) []MergeOption { c.Abort(); return nil },
				err:    ErrAborted, adopts: 0},
		}
		next := make(chan int)
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			defer close(next) // the child then completes into the implicit MergeAll
			child := ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				for i := range next {
					st := steps[i]
					if st.child != nil {
						st.child(d)
					}
					if err := ctx.Sync(); !errors.Is(err, st.err) {
						return fmt.Errorf("%s: Sync returned %v, want %v", st.name, err, st.err)
					}
					if st.check != nil {
						if err := st.check(d); err != nil {
							return fmt.Errorf("%s: %w", st.name, err)
						}
					}
				}
				return nil
			}, d...)
			kids := []*Task{child}
			for i, st := range steps {
				next <- i
				var opts []MergeOption
				if st.parent != nil {
					opts = st.parent(d, child)
				}
				before := adopts.Load()
				err := ctx.MergeAllFromSet(kids, opts...)
				if err != nil && !errors.Is(err, st.err) {
					return err
				}
				if got := adopts.Load() - before; got != st.adopts {
					return fmt.Errorf("%s: %d AdoptFrom calls over %d structures, want %d", st.name, got, n, st.adopts)
				}
			}
			return nil
		}, data...)
		if err != nil {
			t.Error(err)
		}
	})
}

// TestSyncRoundTripAllocsIndependentOfDataSet bounds the allocations of one
// Sync round trip by a child that holds 32 documents and edits one: they
// must not scale with the documents it merely holds. (Refreshing all 32
// cost one buffer each.)
func TestSyncRoundTripAllocsIndependentOfDataSet(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		const n = 32
		data := make([]mergeable.Mergeable, n)
		for i := range data {
			data[i] = mergeable.NewText(strings.Repeat("0123456;", 128))
		}
		step := make(chan struct{})
		var allocs float64
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			kids := []*Task{ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				doc := d[0].(*mergeable.Text)
				for range step {
					doc.Insert(8, "marker;;")
					doc.Delete(64, 8)
					if err := ctx.Sync(); err != nil {
						return err
					}
				}
				return nil
			}, d...)}
			var merr error
			allocs = testing.AllocsPerRun(200, func() {
				step <- struct{}{}
				if err := ctx.MergeAllFromSet(kids); err != nil {
					merr = err
				}
			})
			close(step)
			return merr
		}, data...)
		if err != nil {
			t.Error(err)
		}
		if allocs > 16 {
			t.Errorf("one Sync round trip over %d documents, one edited: %.0f allocs, want ≤ 16", n, allocs)
		}
		t.Logf("%.1f allocs per Sync round trip", allocs)
	})
}

// TestSyncRoundTripAllocsFollowWrites guards the Figure 3 shape: one
// long-lived child bound to 41 structures that writes 4 of them and Syncs.
// A round trip allocates the same at GOMAXPROCS 1 and 4 — the merge has one
// inline path, nothing about it depends on the cores beside it — and no
// more when the 37 structures the child merely holds become 370.
// (testing.AllocsPerRun pins GOMAXPROCS to 1, so the count is taken from
// MemStats directly.)
func TestSyncRoundTripAllocsFollowWrites(t *testing.T) {
	const written, rounds = 4, 200
	measure := func(procs, held int) (allocs uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		data := make([]mergeable.Mergeable, written+held)
		for i := range data {
			data[i] = mergeable.NewList(i)
		}
		step := make(chan struct{})
		err := Run(func(ctx *Ctx, d []mergeable.Mergeable) error {
			kids := []*Task{ctx.Spawn(func(ctx *Ctx, d []mergeable.Mergeable) error {
				for range step {
					for _, m := range d[:written] {
						l := m.(*mergeable.List[int])
						l.Append(7)
						l.Delete(0)
					}
					if err := ctx.Sync(); err != nil {
						return err
					}
				}
				return nil
			}, d...)}
			defer close(step)
			var before, after runtime.MemStats
			for i := -8; i < rounds; i++ { // eight warm-up round trips
				if i == 0 {
					runtime.ReadMemStats(&before)
				}
				step <- struct{}{}
				if err := ctx.MergeAllFromSet(kids); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			allocs = (after.Mallocs - before.Mallocs) / rounds
			return nil
		}, data...)
		if err != nil {
			t.Error(err) // not Fatal: WithTimeout runs this off the test goroutine
		}
		return allocs
	}
	testutil.WithTimeout(t, 30*time.Second, func() {
		base := measure(1, 37)
		if base > 12*written {
			t.Errorf("one Sync round trip over 41 structures, 4 written: %d allocs, want ≤ %d", base, 12*written)
		}
		if got := measure(4, 37); got != base {
			t.Errorf("GOMAXPROCS=4: %d allocs per round trip, %d at GOMAXPROCS=1", got, base)
		}
		if got := measure(1, 370); got > base {
			t.Errorf("370 untouched structures: %d allocs per round trip, %d with 37", got, base)
		}
		t.Logf("%d allocs per Sync round trip", base)
	})
}
