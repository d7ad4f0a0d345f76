package task

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mergeable"
	"repro/internal/obs"
)

// The differential compaction suite pins PR 9's core claim: history GC is
// invisible. A randomized spawn/mutate/sync/merge schedule is run twice —
// op-log trimming disabled, then enabled — with the disabled run's
// MergeAny picks recorded and replayed into the enabled run, so the only
// degree of freedom left is compaction itself. Every structure's final
// fingerprint and the two span trees must be bit-identical, at GOMAXPROCS
// 1 and 4 (the suite runs under -race in CI).

// diffData returns fresh instances of every provided structure family:
// two lists (one takes interior edits, the other appends and overwrites),
// two queues, and one of each other family.
func diffData() []mergeable.Mergeable {
	return []mergeable.Mergeable{
		mergeable.NewList(1, 2, 3),
		mergeable.NewList(4, 5, 6),
		mergeable.NewQueue(7, 8),
		mergeable.NewQueue(9, 10),
		mergeable.NewText("diff"),
		mergeable.NewMap[int, int](),
		mergeable.NewCounter(0),
		mergeable.NewRegister("r0"),
	}
}

// diffMutate applies one seeded operation to a seeded structure.
func diffMutate(r *rand.Rand, data []mergeable.Mergeable) {
	switch r.Intn(8) {
	case 0:
		l := data[0].(*mergeable.List[int])
		if l.Len() > 0 && r.Intn(4) == 0 {
			l.Delete(r.Intn(l.Len()))
		} else {
			l.Insert(r.Intn(l.Len()+1), r.Intn(100))
		}
	case 1:
		f := data[1].(*mergeable.List[int])
		if f.Len() > 0 && r.Intn(2) == 0 {
			f.Set(r.Intn(f.Len()), r.Intn(100))
		} else {
			f.Append(r.Intn(100))
		}
	case 2:
		q := data[2].(*mergeable.Queue[int])
		if r.Intn(3) == 0 {
			q.PopFront()
		} else {
			q.Push(r.Intn(100))
		}
	case 3:
		q := data[3].(*mergeable.Queue[int])
		if r.Intn(3) == 0 {
			q.PopFront()
		} else {
			q.Push(r.Intn(100))
		}
	case 4:
		tx := data[4].(*mergeable.Text)
		if tx.Len() > 0 && r.Intn(4) == 0 {
			tx.Delete(r.Intn(tx.Len()), 1)
		} else {
			tx.Insert(r.Intn(tx.Len()+1), string(rune('a'+r.Intn(26))))
		}
	case 5:
		m := data[5].(*mergeable.Map[int, int])
		if r.Intn(4) == 0 {
			m.Delete(r.Intn(16))
		} else {
			m.Set(r.Intn(16), r.Intn(100))
		}
	case 6:
		data[6].(*mergeable.Counter).Add(int64(r.Intn(21) - 10))
	default:
		data[7].(*mergeable.Register[string]).Set(fmt.Sprintf("r%d", r.Intn(100)))
	}
}

// diffBody is the randomized schedule: every task mutates, interior tasks
// spawn a seeded brood and drain it through MergeAll, a MergeAny loop, or
// the implicit end-of-body collection, and leaves sometimes Sync mid-body
// — the path that pins the parent's history from a live child.
func diffBody(seed int64, depth int) Func {
	return func(ctx *Ctx, data []mergeable.Mergeable) error {
		r := rand.New(rand.NewSource(seed))
		for i, n := 0, 3+r.Intn(6); i < n; i++ {
			diffMutate(r, data)
		}
		if depth == 0 {
			if r.Intn(3) == 0 {
				if err := ctx.Sync(); err != nil {
					return err
				}
				diffMutate(r, data)
			}
			return nil
		}
		kids := 1 + r.Intn(3)
		for k := 0; k < kids; k++ {
			ctx.Spawn(diffBody(seed*7919+int64(k+1), depth-1), data...)
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			diffMutate(r, data)
		}
		switch r.Intn(3) {
		case 0:
			if err := ctx.MergeAll(); err != nil {
				return err
			}
		case 1:
			for k := 0; k < kids; k++ {
				if _, err := ctx.MergeAny(); err != nil {
					return err
				}
			}
		default:
			// Leave the brood for the implicit end-of-body collection.
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			diffMutate(r, data)
		}
		return nil
	}
}

// TestCompactionDifferential: GC off (recording) vs GC on (replaying the
// recorded picks) over randomized schedules — identical per-structure
// fingerprints and identical span trees, at 1 and 4 procs. Slack cycles
// through 0 (eager), 4 and 16 so the deferred-trim path is differential-
// tested too.
func TestCompactionDifferential(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			for seed := int64(1); seed <= 10; seed++ {
				off := diffData()
				script := NewMergeScript()
				trOff := obs.New()
				if err := RunWith(RunConfig{
					Record:  script,
					Obs:     trOff,
					History: HistoryGC{Disable: true},
				}, diffBody(seed, 3), off...); err != nil {
					t.Fatalf("seed %d: GC-off run: %v", seed, err)
				}

				slack := []int{0, 4, 16}[seed%3]
				on := diffData()
				trOn := obs.New()
				if err := RunWith(RunConfig{
					Replay:  script,
					Obs:     trOn,
					History: HistoryGC{Slack: slack},
				}, diffBody(seed, 3), on...); err != nil {
					t.Fatalf("seed %d: GC-on run (slack %d): %v", seed, slack, err)
				}

				for i := range off {
					if wantFP, gotFP := off[i].Fingerprint(), on[i].Fingerprint(); wantFP != gotFP {
						t.Fatalf("seed %d slack %d: structure %d (%T) diverged under compaction: %016x != %016x",
							seed, slack, i, off[i], gotFP, wantFP)
					}
				}
				offTree, onTree := trOff.Tree(), trOn.Tree()
				if offTree.Fingerprint() != onTree.Fingerprint() {
					for _, d := range obs.Diff(offTree, onTree) {
						t.Log(d)
					}
					t.Fatalf("seed %d slack %d: span trees diverged under compaction", seed, slack)
				}

				// The GC-on run actually ran with trimming: its retained
				// histories must be no larger than the unbounded run's, and
				// strictly smaller in aggregate (the schedules above commit
				// far more than one merge window of operations).
				offRetained, onRetained := 0, 0
				for i := range off {
					type logger interface{ Log() *mergeable.Log }
					offRetained += off[i].(logger).Log().RetainedLen()
					onRetained += on[i].(logger).Log().RetainedLen()
				}
				if onRetained >= offRetained {
					t.Fatalf("seed %d slack %d: GC-on run retained %d ops, GC-off %d — trimming never happened",
						seed, slack, onRetained, offRetained)
				}
			}
		})
	}
}

// TestCompactionDifferentialAcrossProcs crosses the knob with the
// scheduler: the same recorded schedule replayed GC-on at 1 proc and
// GC-on at 4 procs must agree with each other and with the GC-off
// original — compaction does not reintroduce scheduling sensitivity.
func TestCompactionDifferentialAcrossProcs(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for seed := int64(20); seed < 24; seed++ {
		off := diffData()
		script := NewMergeScript()
		runtime.GOMAXPROCS(4)
		if err := RunWith(RunConfig{Record: script, History: HistoryGC{Disable: true}}, diffBody(seed, 3), off...); err != nil {
			t.Fatalf("seed %d: recording run: %v", seed, err)
		}
		want := make([]uint64, len(off))
		for i := range off {
			want[i] = off[i].Fingerprint()
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			on := diffData()
			if err := RunWith(RunConfig{Replay: script, History: HistoryGC{}}, diffBody(seed, 3), on...); err != nil {
				t.Fatalf("seed %d procs %d: GC-on replay: %v", seed, procs, err)
			}
			for i := range on {
				if on[i].Fingerprint() != want[i] {
					t.Fatalf("seed %d procs %d: structure %d (%T) diverged under compaction", seed, procs, i, on[i])
				}
			}
		}
	}
}
