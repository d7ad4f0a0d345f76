package repro

import "testing"

// spawnMergeRoundtrip is the framework's minimal unit of work: spawn one
// child over one small list, the child appends, merge.
func spawnMergeRoundtrip(run func(fn Func, data ...Mergeable) error) error {
	l := NewList(1, 2, 3)
	return run(func(ctx *Ctx, d []Mergeable) error {
		ctx.Spawn(func(ctx *Ctx, d []Mergeable) error {
			d[0].(*List[int]).Append(4)
			return nil
		}, d[0])
		return ctx.MergeAll()
	}, l)
}

// spawnMergeRoundtripBody runs the roundtrip b.N times through an
// arbitrary runner, so the same workload prices Run against RunWith.
func spawnMergeRoundtripBody(b *testing.B, run func(fn Func, data ...Mergeable) error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := spawnMergeRoundtrip(run); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestSpawnMergeRoundtripAllocs holds the roundtrip's allocation budget.
// Frames, task shells, logs and merge scratch are pooled, so once the
// pools are warm (AllocsPerRun makes one uncounted run first) a
// spawn-merge roundtrip makes at most 8 allocations.
func TestSpawnMergeRoundtripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats the pools this budget relies on")
	}
	const budget = 8
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if e := spawnMergeRoundtrip(Run); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Fatalf("spawn-merge roundtrip: %.0f allocs, budget %d", allocs, budget)
	}
	t.Logf("%.0f allocs per spawn-merge roundtrip", allocs)
}

// TestTraceOffAddsNoAllocations is the zero-overhead guard: the
// spawn/merge hot path with a nil tracer must allocate exactly as much as
// the plain runner — zero extra allocs/op.
func TestTraceOffAddsNoAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs unhurried runs")
	}
	measure := func(run func(fn Func, data ...Mergeable) error) int64 {
		return testing.Benchmark(func(b *testing.B) {
			spawnMergeRoundtripBody(b, run)
		}).AllocsPerOp()
	}
	plain := measure(Run)
	traceOff := measure(func(fn Func, data ...Mergeable) error {
		return RunWith(RunConfig{}, fn, data...)
	})
	if traceOff > plain {
		t.Fatalf("disabled tracing costs %d allocs/op over the plain runner's %d", traceOff-plain, plain)
	}
}
