package explore

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/stats"
	"repro/internal/task"
)

// TestExhaustiveEnumeratesAllPickOrders is the acceptance check for the
// exhaustive strategy: draining a three-child fan-out with successive
// MergeAny calls has exactly 3! = 6 pick orders, and the DFS must visit
// every one of them, once, and then report the space exhausted.
func TestExhaustiveEnumeratesAllPickOrders(t *testing.T) {
	var mu sync.Mutex
	orders := make(map[[3]int]int)

	sc := Scenario{
		Name: "pickorders",
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			list := mergeable.NewList[int]()
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				var kids []*task.Task
				for i := 0; i < 3; i++ {
					id := i
					kids = append(kids, ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
						data[0].(*mergeable.List[int]).Append(id)
						return nil
					}, data[0]))
				}
				var order [3]int
				for i := 0; i < 3; i++ {
					winner, err := ctx.MergeAny()
					if err != nil {
						return err
					}
					for j, k := range kids {
						if k == winner {
							order[i] = j
						}
					}
				}
				mu.Lock()
				orders[order]++
				mu.Unlock()
				return nil
			}
			return fn, []mergeable.Mergeable{list}
		},
	}

	// The replay cross-check re-executes Build per schedule, which would
	// double the visit counts; TestAnyOrderReplayCheck covers it instead.
	res, err := Run(sc, Options{Strategy: Exhaustive, Schedules: 100, DisableReplayCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if res.Schedules != 6 {
		t.Errorf("Schedules = %d, want 6", res.Schedules)
	}
	if !res.Exhausted {
		t.Error("exhaustive strategy did not report the space exhausted")
	}
	if len(orders) != 6 {
		t.Fatalf("visited %d distinct pick orders, want all 6: %v", len(orders), orders)
	}
	for order, n := range orders {
		if n != 1 {
			t.Errorf("pick order %v visited %d times, want exactly once", order, n)
		}
	}
	// Every permutation of a three-element merge produces a distinct list,
	// so the outcome census must also be six-way.
	if len(res.Outcomes) != 6 {
		t.Errorf("observed %d distinct outcomes, want 6: %v", len(res.Outcomes), res.SortedOutcomes())
	}
}

// TestRandomWalkDeterministicScenario holds the MergeAll-only fixture to
// one fingerprint across random schedules and a GOMAXPROCS sweep.
func TestRandomWalkDeterministicScenario(t *testing.T) {
	res, err := Run(Fanout(), Options{Schedules: 8, Seed: 42, Procs: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if len(res.Outcomes) != 1 {
		t.Errorf("deterministic scenario produced %d outcomes: %v", len(res.Outcomes), res.SortedOutcomes())
	}
	if res.Schedules != 16 {
		t.Errorf("Schedules = %d, want 16 (8 per GOMAXPROCS value)", res.Schedules)
	}
	if got := res.Decisions; got != 0 {
		t.Errorf("MergeAll-only scenario recorded %d decisions, want 0", got)
	}
}

// TestAnyOrderReplayCheck runs the MergeAny fixture under the random walk
// with the replay cross-check on: every outcome must be reproducible by
// forcing its recorded MergeScript through the production replay path.
func TestAnyOrderReplayCheck(t *testing.T) {
	st := stats.NewCounters()
	res, err := Run(AnyOrder(), Options{Schedules: 12, Seed: 7, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if st.Get("replay_check") == 0 {
		t.Error("replay cross-check never ran")
	}
	if len(res.Outcomes) < 2 {
		t.Errorf("random walk over 6 pick orders found %d outcomes, want ≥2", len(res.Outcomes))
	}
}

// TestStallWatchdog plants a child that blocks forever; the
// bounded-progress watchdog must classify the schedule as a stall rather
// than hang the exploration. The wedged goroutine is deliberately leaked.
func TestStallWatchdog(t *testing.T) {
	block := make(chan struct{})
	sc := Scenario{
		Name: "wedge",
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			cnt := mergeable.NewCounter(0)
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
					<-block // never closes: a lost wakeup
					return nil
				}, data[0])
				return ctx.MergeAll()
			}
			return fn, []mergeable.Mergeable{cnt}
		},
	}
	res, err := Run(sc, Options{Schedules: 1, StallTimeout: 300 * time.Millisecond, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Kind != KindStall {
		t.Fatalf("violations = %v, want one %s", res.Violations, KindStall)
	}
	close(block) // release the leaked goroutine after the verdict
}

// TestSourceForcedReplayAndBudget covers the decision stream's contract:
// per-site FIFO replay, default extension, and the budget tripwire.
func TestSourceForcedReplayAndBudget(t *testing.T) {
	forced := Trace{
		{Site: "a", N: 3, Pick: 2},
		{Site: "b", N: 2, Pick: 1},
		{Site: "a", N: 3, Pick: 1},
	}
	src := newSource(forced, nil, 5)
	// Sites interleave differently than recorded; per-site order holds.
	if got := src.Choose("b", 2); got != 1 {
		t.Errorf("b first = %d, want 1", got)
	}
	if got := src.Choose("a", 3); got != 2 {
		t.Errorf("a first = %d, want 2", got)
	}
	if got := src.Choose("a", 3); got != 1 {
		t.Errorf("a second = %d, want 1", got)
	}
	if got := src.Choose("a", 3); got != 0 {
		t.Errorf("a past the forced queue = %d, want default 0", got)
	}
	if got := src.Choose("c", 1); got != 0 {
		t.Errorf("single-alternative site = %d, want 0", got)
	}
	tr, over := src.snapshot()
	if len(tr) != 4 || over {
		t.Fatalf("trace len = %d over = %v, want 4 false", len(tr), over)
	}
	src.Choose("d", 2)
	src.Choose("d", 2) // budget of 5 exhausted here
	if _, over := src.snapshot(); !over {
		t.Error("budget overrun not flagged")
	}
}

// TestSeedFileRoundTrip exercises the seed file format both ways.
func TestSeedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := Trace{
		{Site: "merge:r", N: 3, Pick: 2},
		{Site: "fault.write:n0:00000000deadbeef", N: 3, Pick: 1},
	}
	path, err := persistSeed(dir, "any order", "determinism", 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := ReadSeedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Scenario != "any order" || seed.Kind != "determinism" {
		t.Errorf("header = %q/%q", seed.Scenario, seed.Kind)
	}
	if len(seed.Trace) != 2 || seed.Trace[0] != tr[0] || seed.Trace[1] != tr[1] {
		t.Errorf("trace round-trip mismatch: %v", seed.Trace)
	}
	if _, err := ReadSeedFile(path + "-missing"); err == nil {
		t.Error("reading a missing seed succeeded")
	}
}
