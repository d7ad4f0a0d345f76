package task

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/mergeable"

	"repro/internal/testutil"
)

// runJittered executes fn with random scheduling delays injected at every
// runtime blocking point — a schedule-perturbation harness that widens
// interleaving coverage far beyond what natural scheduling produces. The
// injected delays come from a dedicated RNG guarded by a mutex (the
// perturbation itself may be racy in wall time; the program's results
// must not be).
func runJittered(seed int64, fn Func, data ...mergeable.Mergeable) error {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed))
	return RunWith(RunConfig{Decider: testDecider{yield: func() {
		mu.Lock()
		d := time.Duration(r.Intn(300)) * time.Microsecond
		mu.Unlock()
		time.Sleep(d)
	}}}, fn, data...)
}

// TestJitteredDeterminism runs the fuzz scenario under injected runtime
// jitter: wildly different schedules, identical results.
func TestJitteredDeterminism(t *testing.T) {
	testutil.WithTimeout(t, 120*time.Second, func() {
		for _, seed := range []int64{1, 7, 42} {
			l := mergeable.NewList(1, 2, 3)
			c := mergeable.NewCounter(0)
			tx := mergeable.NewText("seed")
			if err := Run(fuzzTask(seed, 3), l, c, tx); err != nil {
				t.Fatal(err)
			}
			want := mergeable.CombineFingerprints(l.Fingerprint(), c.Fingerprint(), tx.Fingerprint())

			for trial := 0; trial < 3; trial++ {
				l2 := mergeable.NewList(1, 2, 3)
				c2 := mergeable.NewCounter(0)
				tx2 := mergeable.NewText("seed")
				if err := runJittered(int64(trial)*977+seed, fuzzTask(seed, 3), l2, c2, tx2); err != nil {
					t.Fatal(err)
				}
				got := mergeable.CombineFingerprints(l2.Fingerprint(), c2.Fingerprint(), tx2.Fingerprint())
				if got != want {
					t.Fatalf("seed %d trial %d: jittered fingerprint %x != %x", seed, trial, got, want)
				}
			}
		}
	})
}

// TestConditionPanicIsRejection pins the hardening: a panicking condition
// function rejects the merge instead of crashing the parent.
func TestConditionPanicIsRejection(t *testing.T) {
	c := mergeable.NewCounter(0)
	err := Run(func(ctx *Ctx, data []mergeable.Mergeable) error {
		ctx.Spawn(func(ctx *Ctx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.Counter).Inc()
			return nil
		}, data[0])
		mergeErr := ctx.MergeAll(WithCondition(func(preview []mergeable.Mergeable) bool {
			panic("validator exploded")
		}))
		if mergeErr == nil {
			t.Error("panicking condition should reject the merge")
		}
		return nil
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 {
		t.Fatalf("rejected merge leaked: %d", c.Value())
	}
}
