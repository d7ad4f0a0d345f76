package explore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mergeable"
	"repro/internal/task"
)

func init() {
	// The injected placement bug: one registered function per node whose
	// effect leaks the placement — exactly what the runtime promises never
	// happens. The explorer must catch it as a determinism violation.
	for i := 0; i < 3; i++ {
		n := i
		dist.RegisterFunc(fmt.Sprintf("explore-churn-bug-%d", n), func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.List[int]).Append(100 + n)
			return nil
		})
	}
}

// TestChurnRandomWalkSmoke keeps a fast always-on eye on the churn
// scenario: a handful of random membership schedules, all clean, all on
// the one fingerprint.
func TestChurnRandomWalkSmoke(t *testing.T) {
	res, err := Run(Churn(), Options{Schedules: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("violations on random churn walk: %v", res.Violations[0])
	}
	if res.Lost != 0 {
		t.Fatalf("lost schedules = %d, want 0 (churn tolerates no errors)", res.Lost)
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %v, want exactly one", res.SortedOutcomes())
	}
}

// TestChurnExhaustiveAcceptance is the elastic-membership acceptance
// bar: the exhaustive strategy must enumerate at least a thousand
// distinct join/leave/drain/kill/placement schedules with zero
// violations and a single outcome — the determinism claim quantified
// over membership churn.
func TestChurnExhaustiveAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive churn sweep is not a -short test")
	}
	res, err := Run(Churn(), Options{Strategy: Exhaustive, Schedules: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted && res.Schedules < 1000 {
		t.Fatalf("enumerated %d schedules, want >= 1000 (or exhaustion)", res.Schedules)
	}
	if !res.Ok() {
		t.Fatalf("%d violations; first: %v", len(res.Violations), res.Violations[0])
	}
	if res.Lost != 0 {
		t.Fatalf("lost schedules = %d, want 0", res.Lost)
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %v, want exactly one across all churn schedules", res.SortedOutcomes())
	}
}

// TestChurnCrashExploration composes the two failure axes: explored
// membership schedules re-run journaled, torn at crash points, resumed
// and held to the live outcome — the coordinator-crash choice riding
// the same decision stream as the churn choices.
func TestChurnCrashExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point churn sweep is not a -short test")
	}
	res, err := Run(Churn(), Options{
		Schedules: 3,
		Seed:      11,
		Crash: &CrashCheck{
			Encode: dist.EncodeSnapshot,
			Decode: dist.DecodeSnapshot,
			Points: 2,
			Dir:    t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
}

// churnPlacementBug is a deliberately broken elastic workload: the
// merged value depends on where the task was placed.
func churnPlacementBug() Scenario {
	return Scenario{
		Name:          "churn-placement-bug",
		Deterministic: true,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			cluster := dist.NewClusterWith(dist.Options{Nodes: 3, HeartbeatInterval: -1})
			env.Defer(cluster.Close)
			list := mergeable.NewList[int]()
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				target := env.Decide("bug.target", 3)
				cluster.SpawnRemote(ctx, target, fmt.Sprintf("explore-churn-bug-%d", target), data[0])
				return ctx.MergeAll()
			}
			return fn, []mergeable.Mergeable{list}
		},
	}
}

// TestChurnPlacementBugShrinksToSeed: an injected placement bug must be
// found, shrunk to the single placement decision that triggers it, and
// persisted as a seed file that reproduces the violation on replay.
func TestChurnPlacementBugShrinksToSeed(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(churnPlacementBug(), Options{
		Strategy:  Exhaustive,
		Schedules: 16,
		Shrink:    true,
		SeedDir:   dir,
		FailFast:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("the injected placement bug was not found")
	}
	v := res.Violations[0]
	if v.Kind != KindDeterminism {
		t.Fatalf("violation kind = %s, want %s", v.Kind, KindDeterminism)
	}
	if len(v.Trace) != 1 {
		t.Errorf("this bug is one placement decision, shrinker kept %d:\n%s", len(v.Trace), v.Trace)
	}
	if len(v.Trace) == 1 && (v.Trace[0].Site != "bug.target" || v.Trace[0].Pick == 0) {
		t.Errorf("minimal decision = %v, want a non-default bug.target pick", v.Trace[0])
	}
	if v.SeedFile == "" {
		t.Fatal("violation was not persisted to a seed file")
	}
	re, err := ReplaySeed(v.SeedFile, churnPlacementBug(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re == nil {
		t.Fatal("replaying the persisted seed did not reproduce the violation")
	}
	if re.Kind != KindDeterminism {
		t.Errorf("replayed violation kind = %s, want %s", re.Kind, KindDeterminism)
	}
}

// leaveRaceScenario pins the nastiest membership edge: a member leaves
// while a task it hosts is still in flight. The decision stream places
// the leave before or after the merge; either way the task's effects
// must land exactly once.
func leaveRaceScenario() Scenario {
	return Scenario{
		Name:          "churn-leave-race",
		Deterministic: true,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			cluster := dist.NewClusterWith(dist.Options{
				Nodes:             2,
				HeartbeatInterval: -1,
				RecvTimeout:       5 * time.Second,
				Retry:             dist.RetryPolicy{MaxAttempts: 4},
			})
			env.Defer(cluster.Close)
			list := mergeable.NewList[int]()
			cnt := mergeable.NewCounter(0)
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				cluster.SpawnRemote(ctx, 0, "explore-churn-0", data[0], data[1])
				before := env.Decide("leave.before-merge", 2) == 1
				if before {
					if err := cluster.Leave(0); err != nil {
						return err
					}
				}
				if err := ctx.MergeAll(); err != nil {
					return err
				}
				if !before {
					if err := cluster.Leave(0); err != nil {
						return err
					}
				}
				return nil
			}
			return fn, []mergeable.Mergeable{list, cnt}
		},
	}
}

// TestChurnLeaveRacesMerge exhausts the leave-vs-merge race: both
// orderings run, the space is fully enumerated, and the outcome is one
// fingerprint — the departing member's task was rebalanced, not lost and
// not duplicated.
func TestChurnLeaveRacesMerge(t *testing.T) {
	res, err := Run(leaveRaceScenario(), Options{Strategy: Exhaustive, Schedules: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("leave-race space not exhausted in %d schedules", res.Schedules)
	}
	if res.Schedules < 2 {
		t.Fatalf("schedules = %d, want both leave orderings", res.Schedules)
	}
	if !res.Ok() {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %v, want exactly one", res.SortedOutcomes())
	}
}
