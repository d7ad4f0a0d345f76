package task

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mergeable"

	"repro/internal/testutil"
)

// fuzzTask builds a seed-derived task body: a deterministic-but-arbitrary
// mix of structure operations, nested spawns, explicit merges and syncs.
// Any two executions of the same seed must produce identical final state —
// the runtime's determinism guarantee probed across random tree shapes
// rather than hand-written scenarios.
func fuzzTask(seed int64, depth int) Func {
	return func(ctx *Ctx, data []mergeable.Mergeable) error {
		r := rand.New(rand.NewSource(seed))
		l := data[0].(*mergeable.List[int])
		c := data[1].(*mergeable.Counter)
		tx := data[2].(*mergeable.Text)

		mutate := func() {
			for i, n := 0, r.Intn(4); i < n; i++ {
				switch r.Intn(5) {
				case 0:
					l.Append(r.Intn(100))
				case 1:
					if l.Len() > 0 {
						l.Delete(r.Intn(l.Len()))
					}
				case 2:
					l.Insert(r.Intn(l.Len()+1), r.Intn(100))
				case 3:
					c.Add(int64(r.Intn(10) - 4))
				default:
					tx.Insert(r.Intn(tx.Len()+1), string(rune('a'+r.Intn(26))))
				}
			}
		}

		mutate()
		if depth > 0 {
			for k, kids := 0, r.Intn(3); k < kids; k++ {
				childSeed := seed*1000003 + int64(k)*7919 + int64(depth)
				ctx.Spawn(fuzzTask(childSeed, depth-1), l, c, tx)
			}
			if r.Intn(2) == 0 {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
				mutate()
			} // else: rely on the implicit MergeAll
		}
		if ctx.task.parent != nil && r.Intn(3) == 0 {
			if err := ctx.Sync(); err != nil {
				return err
			}
			mutate()
		}
		return nil
	}
}

func runFuzzTree(seed int64) uint64 {
	l := mergeable.NewList(1, 2, 3)
	c := mergeable.NewCounter(0)
	tx := mergeable.NewText("seed")
	err := Run(fuzzTask(seed, 3), l, c, tx)
	if err != nil {
		panic(err)
	}
	return mergeable.CombineFingerprints(l.Fingerprint(), c.Fingerprint(), tx.Fingerprint())
}

// TestRuntimeDeterminismFuzz runs each random tree shape several times
// and requires identical fingerprints.
func TestRuntimeDeterminismFuzz(t *testing.T) {
	testutil.WithTimeout(t, 120*time.Second, func() {
		f := func(seed int64) bool {
			want := runFuzzTree(seed)
			for i := 0; i < 3; i++ {
				if got := runFuzzTree(seed); got != want {
					t.Logf("seed %d: run %d fingerprint %x != %x", seed, i, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRuntimeDeterminismFuzzPooled repeats the fuzz under a bounded pool:
// pooling must not change any outcome.
func TestRuntimeDeterminismFuzzPooled(t *testing.T) {
	testutil.WithTimeout(t, 120*time.Second, func() {
		runPooled := func(seed int64, pool int) uint64 {
			l := mergeable.NewList(1, 2, 3)
			c := mergeable.NewCounter(0)
			tx := mergeable.NewText("seed")
			if err := RunWith(RunConfig{MaxParallel: pool}, fuzzTask(seed, 3), l, c, tx); err != nil {
				panic(err)
			}
			return mergeable.CombineFingerprints(l.Fingerprint(), c.Fingerprint(), tx.Fingerprint())
		}
		f := func(seed int64) bool {
			want := runFuzzTree(seed)
			for _, pool := range []int{1, 2, 8} {
				if got := runPooled(seed, pool); got != want {
					t.Logf("seed %d pool %d: %x != %x", seed, pool, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
}
