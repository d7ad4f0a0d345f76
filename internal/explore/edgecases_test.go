package explore

import (
	"testing"

	"repro/internal/stats"
)

func newTestCounters() *stats.Counters { return stats.NewCounters() }

// TestAbortRacingSyncDeterministic explores every abort-victim choice
// exhaustively across a GOMAXPROCS sweep: wherever the Abort flag lands
// relative to the victim's Syncs, exactly one worker's effects must be
// discarded, so the committed-increment count is schedule-invariant.
func TestAbortRacingSyncDeterministic(t *testing.T) {
	res, err := Run(AbortSync(), Options{
		Strategy:  Exhaustive,
		Schedules: 50,
		Procs:     []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	// Three victims per pass, two passes.
	if res.Schedules != 6 {
		t.Errorf("Schedules = %d, want 6", res.Schedules)
	}
	if !res.Exhausted {
		t.Error("abort space not exhausted")
	}
	if len(res.Outcomes) != 1 {
		t.Errorf("abort outcomes = %v, want exactly one (6 = two surviving workers × three increments)", res.SortedOutcomes())
	}
	for fp := range res.Outcomes {
		if fp != 6 {
			t.Errorf("outcome fingerprint = %d, want 6 committed increments", fp)
		}
	}
}

// TestMergeAnyFromSetOverlapExhaustive drives the duplicate/overlap
// fixture through the exhaustive strategy. The first call's duplicates
// collapse to two candidates; when the first winner overlaps the second
// set, the single survivor is no decision point at all — so the whole
// space is exactly three schedules.
func TestMergeAnyFromSetOverlapExhaustive(t *testing.T) {
	res, err := Run(OverlapAny(), Options{Strategy: Exhaustive, Schedules: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if res.Schedules != 3 {
		t.Errorf("Schedules = %d, want 3 (a→b, a→c, b→c)", res.Schedules)
	}
	if !res.Exhausted {
		t.Error("overlap space not exhausted")
	}
	if len(res.Outcomes) < 2 {
		t.Errorf("overlap outcomes = %v, want the merge order to show", res.SortedOutcomes())
	}
}

// TestChaosDecisionDriven runs the distributed scenario with every
// faultnet decision wired to the decision stream: the healthy baseline
// plus random fault schedules must either converge to the baseline
// fingerprint or die as tolerated lost runs — never diverge.
func TestChaosDecisionDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos exploration is not short")
	}
	st := stats.NewCounters()
	res, err := Run(Chaos(), Options{Schedules: 6, Seed: 11, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if res.Schedules != 6 {
		t.Errorf("Schedules = %d, want 6", res.Schedules)
	}
	if len(res.Outcomes) > 1 {
		t.Errorf("chaos outcomes diverged: %v", res.SortedOutcomes())
	}
	if res.Decisions == 0 {
		t.Error("no fault decisions recorded — the decider is not wired")
	}
}
