package explore

import (
	"testing"
)

// TestShardScenarioExhaustive enumerates the sharded service's whole
// membership decision space — no change / a shard joining / a shard
// draining, crossed with where the handoff lands in the client's write
// waves, whether a connection dialed before the handoff races it with a
// stale-epoch write, and whether a shard is killed and resumed from its
// journal — and demands the single fingerprint the epoch fence
// guarantees: routed writes are handoff-transparent and every stale
// in-flight write is turned away.
func TestShardScenarioExhaustive(t *testing.T) {
	res, err := Run(Shard(), Options{Strategy: Exhaustive, Schedules: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	for _, v := range res.Violations {
		t.Error(v)
	}
	if !res.Exhausted {
		t.Errorf("schedule space not exhausted in %d schedules", res.Schedules)
	}
	if res.Lost != 0 {
		t.Errorf("lost %d schedules, want 0 (no chaos in this scenario)", res.Lost)
	}
	if len(res.Outcomes) != 1 {
		t.Errorf("observed %d outcomes, want exactly 1: %v", len(res.Outcomes), res.SortedOutcomes())
	}
}

// TestShardStaleOwnerShrinksToSeed is the planted-bug acceptance check:
// with UnsafeLiveHandoff the old owner keeps acking writes after its
// documents moved, so the explorer must flag a determinism violation,
// shrink it to the two necessary decisions (join the shard, race the
// write), and persist a seed file that reproduces the bug on replay.
func TestShardStaleOwnerShrinksToSeed(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(shardStaleOwner(), Options{
		Strategy:  Exhaustive,
		Schedules: 32,
		Shrink:    true,
		SeedDir:   dir,
		FailFast:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("the planted stale-owner bug was not found")
	}
	v := res.Violations[0]
	if v.Kind != KindDeterminism {
		t.Fatalf("violation kind = %s, want %s", v.Kind, KindDeterminism)
	}
	if len(v.Trace) > 2 {
		t.Errorf("shrunk trace has %d decisions, want ≤2:\n%s", len(v.Trace), v.Trace)
	}
	for _, d := range v.Trace {
		if (d.Site != "shard.plan" && d.Site != "shard.inflight") || d.Pick != 1 {
			t.Errorf("unexpected decision in minimal trace: %v", d)
		}
	}
	if v.SeedFile == "" {
		t.Fatal("violation was not persisted to a seed file")
	}

	// The persisted seed alone must reproduce the lost write.
	re, err := ReplaySeed(v.SeedFile, shardStaleOwner(), Options{})
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
