package explore

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/mergeable"
	"repro/internal/stats"
	"repro/internal/task"
)

// retainedOps sums the structures' retained op-log lengths — the quantity
// history GC bounds and the one thing a correct compaction must keep
// invisible to fingerprints.
func retainedOps(data []mergeable.Mergeable) int {
	total := 0
	for _, m := range data {
		type logger interface{ Log() *mergeable.Log }
		total += m.(logger).Log().RetainedLen()
	}
	return total
}

// TestCompactRetainedByPolicy pins the calibration the leak test below
// rides on: under every GC-on policy the end-of-body collection leaves
// the op logs trimmed below the leak threshold, while GC-off retains the
// full root history above it — same fingerprint either way.
func TestCompactRetainedByPolicy(t *testing.T) {
	var want uint64
	for pick := 0; pick < 4; pick++ {
		sc := Compact()
		env := &Env{src: newSource(Trace{{Site: "compact.gc", N: 4, Pick: pick}}, nil, 4096)}
		fn, data := sc.Build(env)
		if err := task.RunWith(task.RunConfig{Decider: env, History: env.history}, fn, data...); err != nil {
			t.Fatalf("pick %d: %v", pick, err)
		}
		env.runDeferred()
		retained := retainedOps(data)
		t.Logf("gc pick %d: retained %d", pick, retained)
		if fp := Fingerprint(data...); pick == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("gc pick %d: fingerprint %016x, baseline %016x", pick, fp, want)
		}
		if pick == 1 {
			if retained <= compactLeakThreshold {
				t.Errorf("GC off retained %d ops, want > %d", retained, compactLeakThreshold)
			}
		} else if retained > compactLeakThreshold {
			t.Errorf("gc pick %d retained %d ops, want <= %d", pick, retained, compactLeakThreshold)
		}
	}
}

// TestCompactExhaustive enumerates the compact scenario's whole decision
// space — GC policy × abort × drain × MergeAny pick order — with
// bounded-exhaustive DFS. Every combination must land on the one
// bit-identical fingerprint: compaction, aborts and merge order are all
// observationally invisible.
func TestCompactExhaustive(t *testing.T) {
	res, err := Run(Compact(), Options{Strategy: Exhaustive, Schedules: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if !res.Exhausted {
		t.Errorf("decision space not exhausted in %d schedules", res.Schedules)
	}
	if len(res.Outcomes) != 1 {
		t.Errorf("observed %d distinct outcomes, want 1: %v", len(res.Outcomes), res.SortedOutcomes())
	}
	// The GC site alone has four alternatives; the space must be larger
	// than any single site's fan-out.
	if res.Schedules < 16 {
		t.Errorf("only %d schedules enumerated — decision sites missing", res.Schedules)
	}
	t.Logf("%s", res)
}

// TestCompactCrashExploration re-runs explored compact schedules
// journaled with a tiny rotation threshold and aggressive checkpoint
// pruning, kills them at swept byte budgets and resumes: recovery must
// reproduce the live fingerprint even when the tear lands mid-rotation,
// and the sweep must actually have rotated and pruned.
func TestCompactCrashExploration(t *testing.T) {
	jc := stats.NewCounters()
	res, err := Run(Compact(), Options{
		Schedules: 3,
		Seed:      7,
		Crash: &CrashCheck{
			Encode:            dist.EncodeSnapshot,
			Decode:            dist.DecodeSnapshot,
			Points:            3,
			Dir:               t.TempDir(),
			CheckpointEvery:   1,
			SegmentBytes:      256,
			RetainCheckpoints: 1,
			Stats:             jc,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if jc.Get("compaction.wal.rotations") == 0 {
		t.Error("crash sweep never rotated a WAL segment — SegmentBytes not honored")
	}
	if jc.Get("compaction.ckpt.pruned") == 0 {
		t.Error("crash sweep never pruned a checkpoint — RetainCheckpoints not honored")
	}
}

// compactLeakThreshold separates every GC-on policy's retained history
// (the end-of-body collection advances the watermark past everything, so
// the final trim empties the logs at any slack) from the GC-off
// accumulation, which keeps all eight root list appends.
const compactLeakThreshold = 4

// compactLeakBug is the planted violation for the shrink check: its
// fingerprint leaks whether history was actually compacted, so the one
// decision that disables GC breaks determinism — and the shrinker must
// strip every abort/drain/merge decision and hand back exactly that
// single-decision seed.
func compactLeakBug() Scenario {
	sc := Compact()
	sc.Name = "compactleak"
	sc.Fingerprint = func(data []mergeable.Mergeable) uint64 {
		fp := Fingerprint(data...)
		if retainedOps(data) > compactLeakThreshold {
			fp ^= 0xdeadbeef // the injected leak
		}
		return fp
	}
	return sc
}

// TestCompactShrinkToMinimalSeed: the leak bug needs exactly one wrong
// decision (compact.gc = disable), so the shrunk counterexample must be
// that single decision, persisted as a seed file that reproduces the
// violation on replay.
func TestCompactShrinkToMinimalSeed(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(compactLeakBug(), Options{
		Strategy:  Exhaustive,
		Schedules: 4096,
		Shrink:    true,
		SeedDir:   dir,
		FailFast:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("the planted compaction leak was not found")
	}
	v := res.Violations[0]
	if v.Kind != KindDeterminism {
		t.Fatalf("violation kind = %s, want %s", v.Kind, KindDeterminism)
	}
	if len(v.Trace) != 1 {
		t.Fatalf("shrunk trace has %d decisions, want exactly the GC decision:\n%s", len(v.Trace), v.Trace)
	}
	if d := v.Trace[0]; d.Site != "compact.gc" || d.Pick != 1 {
		t.Errorf("minimal decision = %v, want compact.gc pick 1 (GC off)", d)
	}
	if v.SeedFile == "" {
		t.Fatal("violation was not persisted to a seed file")
	}
	re, err := ReplaySeed(v.SeedFile, compactLeakBug(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re == nil || re.Kind != KindDeterminism {
		t.Fatalf("persisted seed did not reproduce the violation: %v", re)
	}
}
