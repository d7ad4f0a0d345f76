package task

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/mergeable"

	"repro/internal/testutil"
)

// testDecider adapts functions to Decider. A nil pick declines, so the
// merge stays first-completed; nil picked and yield do nothing.
type testDecider struct {
	pick   func(path string, candidates []uint64) (uint64, bool)
	picked func(path string, seq uint64)
	yield  func()
}

func (d testDecider) Pick(path string, candidates []uint64) (uint64, bool) {
	if d.pick == nil {
		return 0, false
	}
	return d.pick(path, candidates)
}

func (d testDecider) Picked(path string, seq uint64) {
	if d.picked != nil {
		d.picked(path, seq)
	}
}

func (d testDecider) Yield() {
	if d.yield != nil {
		d.yield()
	}
}

// lastCandidate forces the highest-numbered candidate.
func lastCandidate(_ string, candidates []uint64) (uint64, bool) {
	return candidates[len(candidates)-1], true
}

// anyScenario spawns n no-op children and drains them with MergeAny,
// returning the merged children's creation seqs in merge order.
func anyScenario(cfg RunConfig, n int) ([]uint64, error) {
	var merged []uint64
	err := RunWith(cfg, func(ctx *Ctx, data []mergeable.Mergeable) error {
		for i := 0; i < n; i++ {
			ctx.Spawn(func(*Ctx, []mergeable.Mergeable) error { return nil })
		}
		for i := 0; i < n; i++ {
			c, err := ctx.MergeAny()
			if err != nil {
				return err
			}
			merged = append(merged, c.seq)
		}
		return nil
	})
	return merged, err
}

// chooseScenario spawns three children appending their index and merges
// them with MergeAny in a loop, returning the final list contents.
func chooseScenario(t *testing.T, cfg RunConfig) []int {
	t.Helper()
	list := mergeable.NewList[int]()
	err := RunWith(cfg, func(ctx *Ctx, data []mergeable.Mergeable) error {
		for i := 0; i < 3; i++ {
			n := i
			ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				if n == 0 {
					// The earliest-spawned child finishes last, so a live
					// first-completed merge would almost never pick it first.
					time.Sleep(2 * time.Millisecond)
				}
				data[0].(*mergeable.List[int]).Append(n)
				return nil
			}, data[0])
		}
		for i := 0; i < 3; i++ {
			if _, err := ctx.MergeAny(); err != nil {
				return err
			}
		}
		return nil
	}, list)
	if err != nil {
		t.Fatal(err)
	}
	return list.Values()
}

// TestChooseForcesPickOrder pins the decider's Pick: it forces merge order
// 2,1,0 against the completion order, and sees the candidate sets shrink
// as children are merged.
func TestChooseForcesPickOrder(t *testing.T) {
	var seen [][]uint64
	choose := func(path string, candidates []uint64) (uint64, bool) {
		if path != "r" {
			t.Errorf("chooser path = %q, want r", path)
		}
		seen = append(seen, append([]uint64(nil), candidates...))
		return lastCandidate(path, candidates)
	}
	got := chooseScenario(t, RunConfig{Decider: testDecider{pick: choose}})
	if want := []int{2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	wantSeen := [][]uint64{{0, 1, 2}, {0, 1}, {0}}
	if !reflect.DeepEqual(seen, wantSeen) {
		t.Fatalf("candidate sets = %v, want %v", seen, wantSeen)
	}
}

// TestChooseDecline pins the fallback: a decider that declines leaves the
// merge on live first-completed behavior, and the run still completes.
func TestChooseDecline(t *testing.T) {
	if got := chooseScenario(t, RunConfig{Decider: testDecider{}}); len(got) != 3 {
		t.Fatalf("list = %v, want 3 elements", got)
	}
}

// TestChooseFromSet drives MergeAnyFromSet: candidates are exactly the
// given set (duplicates collapsed), and the forced pick wins.
func TestChooseFromSet(t *testing.T) {
	var seen [][]uint64
	choose := func(path string, candidates []uint64) (uint64, bool) {
		seen = append(seen, append([]uint64(nil), candidates...))
		return lastCandidate(path, candidates)
	}
	reg := mergeable.NewRegister(0)
	err := RunWith(RunConfig{Decider: testDecider{pick: choose}}, func(ctx *Ctx, data []mergeable.Mergeable) error {
		var ts []*Task
		for i := 1; i <= 2; i++ {
			n := i
			ts = append(ts, ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				data[0].(*mergeable.Register[int]).Set(n)
				return nil
			}, data[0]))
		}
		// Duplicate entries must collapse to one candidate each.
		if _, err := ctx.MergeAnyFromSet([]*Task{ts[0], ts[0], ts[1]}); err != nil {
			return err
		}
		return ctx.MergeAll()
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !reflect.DeepEqual(seen[0], []uint64{0, 1}) {
		t.Fatalf("candidate sets = %v, want [[0 1]]", seen)
	}
	// Forced pick was child seq 1 (Set(2)), so its write commits first and
	// wins the conflict; child 0's later Set(1) transforms to a no-op.
	if got := reg.Get(); got != 2 {
		t.Fatalf("register = %d, want 2", got)
	}
}

// TestChooseReplayPrecedence pins the explorer's record/replay pair: a
// script that recorded a chooser's forced picks replays the chooser's
// order on its own, not the completion order.
func TestChooseReplayPrecedence(t *testing.T) {
	script := NewMergeScript()
	chooser := testDecider{pick: lastCandidate, picked: script.Picked}
	if got := chooseScenario(t, RunConfig{Decider: chooser}); !reflect.DeepEqual(got, []int{2, 1, 0}) {
		t.Fatalf("chooser run = %v, want [2 1 0]", got)
	}
	for i := 0; i < 3; i++ {
		if got := chooseScenario(t, RunConfig{Decider: script}); !reflect.DeepEqual(got, []int{2, 1, 0}) {
			t.Fatalf("replay %d = %v, want the recorded [2 1 0]", i, got)
		}
	}
}

// TestChooseNonCandidateFails pins the one rule for forced picks a merge
// cannot honour: MergeAny gives up once every live child waits quiescent
// without the picked one, MergeAnyFromSet at once when the pick is outside
// the set. Both fail with ErrBadPick instead of blocking forever (MergeAny)
// or merging a child outside the set (MergeAnyFromSet).
func TestChooseNonCandidateFails(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		for _, fromSet := range []bool{false, true} {
			script := NewMergeScript()
			script.Picked("r", map[bool]uint64{false: 7, true: 2}[fromSet])
			var merged *Task
			err := RunWith(RunConfig{Decider: script}, func(ctx *Ctx, data []mergeable.Mergeable) error {
				var ts []*Task
				for i := 0; i < 3; i++ {
					ts = append(ts, ctx.Spawn(func(*Ctx, []mergeable.Mergeable) error { return nil }))
				}
				var err error
				if fromSet {
					merged, err = ctx.MergeAnyFromSet(ts[:2])
				} else {
					merged, err = ctx.MergeAny()
				}
				return err
			})
			if !errors.Is(err, ErrBadPick) || merged != nil {
				t.Errorf("fromSet=%v: merged %v, err = %v; want nothing merged and ErrBadPick", fromSet, merged, err)
			}
		}
	})
}

// TestMergeScriptReplaysThenRecords: one script forces its three recorded
// picks, then records the three fresh ones after them.
func TestMergeScriptReplaysThenRecords(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		script := NewMergeScript()
		for _, seq := range []uint64{5, 3, 4} {
			script.Picked("r", seq)
		}
		merged, err := anyScenario(RunConfig{Decider: script}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged[:3], []uint64{5, 3, 4}) {
			t.Fatalf("merge order %v does not start with the recorded 5 3 4", merged)
		}
		if got := script.Picks()["r"]; !reflect.DeepEqual(got, merged) {
			t.Fatalf("script holds %v after the run, merges were %v", got, merged)
		}
	})
}

// racyScenario uses MergeAny over children racing to write one register —
// a genuinely non-deterministic program. The returned values are the
// register after each of the four merges.
func racyScenario(cfg RunConfig, delays []time.Duration) ([]int, error) {
	reg := mergeable.NewRegister(-1)
	var observed []int
	err := RunWith(cfg, func(ctx *Ctx, data []mergeable.Mergeable) error {
		r := data[0].(*mergeable.Register[int])
		for i := 0; i < 4; i++ {
			i := i
			ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				time.Sleep(delays[i])
				data[0].(*mergeable.Register[int]).Set(i)
				return nil
			}, r)
		}
		for i := 0; i < 4; i++ {
			if _, err := ctx.MergeAny(); err != nil {
				return err
			}
			observed = append(observed, r.Get())
		}
		return nil
	}, reg)
	return observed, err
}

// TestRecordReplayReproducesNonDeterministicRun records a racy execution
// and replays it repeatedly with different timing: the replayed outcomes
// must match the recording exactly.
func TestRecordReplayReproducesNonDeterministicRun(t *testing.T) {
	testutil.WithTimeout(t, 60*time.Second, func() {
		script := NewMergeScript()
		// Record with strongly skewed delays so a specific order is likely.
		recorded, err := racyScenario(RunConfig{Decider: script}, []time.Duration{30 * time.Millisecond, 0, 10 * time.Millisecond, 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if script.Len() != 4 {
			t.Fatalf("script recorded %d picks, want 4", script.Len())
		}
		// Replay with inverted delays: timing now favors a different
		// order, but the script must win.
		for i := 0; i < 10; i++ {
			replayed, err := racyScenario(RunConfig{Decider: script}, []time.Duration{0, 30 * time.Millisecond, 20 * time.Millisecond, 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed, recorded) {
				t.Fatalf("replay %d diverged: %v vs recorded %v", i, replayed, recorded)
			}
		}
		if script.Len() != 4 {
			t.Fatalf("replays grew the script to %d picks", script.Len())
		}
	})
}

// TestReplayScriptDryFallsBack: merges past a script's recorded picks fall
// back to live behavior instead of hanging.
func TestReplayScriptDryFallsBack(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		if merged, err := anyScenario(RunConfig{Decider: NewMergeScript()}, 3); err != nil || len(merged) != 3 {
			t.Fatalf("merged %v, err %v; want 3 merges", merged, err)
		}
	})
}

// TestRecordingDeterministicProgramIsHarmless records a program without
// non-deterministic merges: the script stays empty and results match Run.
func TestRecordingDeterministicProgramIsHarmless(t *testing.T) {
	script := NewMergeScript()
	c := mergeable.NewCounter(0)
	err := RunWith(RunConfig{Decider: script}, func(ctx *Ctx, data []mergeable.Mergeable) error {
		ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.Counter).Inc()
			return nil
		}, data[0])
		return ctx.MergeAll()
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if script.Len() != 0 || c.Value() != 1 {
		t.Fatalf("script has %d picks, counter = %d; want 0 and 1", script.Len(), c.Value())
	}
}

// TestMergeScriptSnapshotRestoreRoundTrip: Snapshot's bytes are
// deterministic and Restore rebuilds the identical pick table with the
// cursors rewound.
func TestMergeScriptSnapshotRestoreRoundTrip(t *testing.T) {
	fill := func(picks ...any) *MergeScript {
		s := NewMergeScript()
		for i := 0; i < len(picks); i += 2 {
			s.Picked(picks[i].(string), uint64(picks[i+1].(int)))
		}
		return s
	}
	s := fill("r", 2, "r", 0, "r/1", 5, "r/0/3", 1)
	snap := s.Snapshot()
	if !bytes.Equal(snap, s.Snapshot()) {
		t.Fatal("two snapshots of the same script differ")
	}
	// Same picks inserted in a different order must serialize identically.
	if !bytes.Equal(snap, fill("r/0/3", 1, "r/1", 5, "r", 2, "r", 0).Snapshot()) {
		t.Fatal("snapshot bytes depend on path insertion order")
	}
	// The recorded pick leaves the cursor past it; Restore must rewind.
	restored := fill("r", 9)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Picks(), s.Picks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored picks %v, want %v", got, want)
	}
	if seq, ok := restored.Pick("r", nil); !ok || seq != 2 {
		t.Fatalf("first pick after restore = %d,%v, want 2,true (cursors not rewound)", seq, ok)
	}
	if err := restored.Restore([]byte("not a snapshot")); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

// TestMergeScriptConcurrentUse hammers Pick/Picked/Snapshot/Picks from
// many goroutines — the race detector is the assertion.
func TestMergeScriptConcurrentUse(t *testing.T) {
	s := NewMergeScript()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := []string{"r", "r/0", "r/1", "r/2"}[g%4]
			for i := 0; i < 200; i++ {
				switch g % 3 {
				case 0:
					s.Picked(path, uint64(i))
				case 1:
					s.Pick(path, nil)
					s.Len()
				default:
					s.Snapshot()
					s.Picks()
				}
			}
		}()
	}
	wg.Wait()
	if err := NewMergeScript().Restore(s.Snapshot()); err != nil {
		t.Fatalf("snapshot taken under contention does not restore: %v", err)
	}
}

// TestRootMergeHook: the hook fires once per root merge, on ascending
// 1-based ordinals, with the root's live structures.
func TestRootMergeHook(t *testing.T) {
	var ordinals []int
	var values []int64
	hook := func(data []mergeable.Mergeable, n int) {
		ordinals = append(ordinals, n)
		values = append(values, data[0].(*mergeable.Counter).Value())
	}
	c := mergeable.NewCounter(0)
	err := RunWith(RunConfig{OnRootMerge: hook}, func(ctx *Ctx, data []mergeable.Mergeable) error {
		for i := 0; i < 3; i++ {
			ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
				data[0].(*mergeable.Counter).Inc()
				return nil
			}, data[0])
			if err := ctx.MergeAll(); err != nil {
				return err
			}
		}
		return nil
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ordinals, []int{1, 2, 3}) {
		t.Fatalf("hook ordinals = %v, want [1 2 3]", ordinals)
	}
	if !reflect.DeepEqual(values, []int64{1, 2, 3}) {
		t.Fatalf("hook observed counter values %v, want [1 2 3] (post-merge state)", values)
	}
}

// TestTaskPath pins the stable identity scheme replay relies on.
func TestTaskPath(t *testing.T) {
	err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
		if got := ctx.task.path(); got != "r" {
			t.Errorf("root path = %q", got)
		}
		for _, want := range []string{"r/0", "r/1"} {
			want := want
			ctx.Spawn(func(inner *Ctx, data []mergeable.Mergeable) error {
				if got := inner.task.path(); got != want {
					t.Errorf("child path = %q, want %q", got, want)
				}
				return nil
			})
		}
		return ctx.MergeAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}
