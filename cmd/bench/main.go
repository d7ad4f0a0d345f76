// Command bench runs the repository's core benchmark families outside `go
// test` and writes a BENCH_PR10.json trajectory file, so successive PRs can
// track ns/op and allocs/op against the recorded pre-PR baseline instead
// of eyeballing `go test -bench` output.
//
// Usage:
//
//	go run ./cmd/bench            # full run (300ms per family, 5 rounds)
//	go run ./cmd/bench -quick     # CI smoke: 30ms per family, 1 round
//	go run ./cmd/bench -out F     # write the trajectory to F
//	go run ./cmd/bench -gate      # exit non-zero if the roundtrip's or
//	                              # shard_route's allocs/op exceed the
//	                              # committed budgets
//
// Each family is measured with testing.Benchmark and the median of
// `rounds` ns/op is recorded — this machine's run-to-run noise is ±8%, so
// single runs are not comparable. The baseline_* fields are the same
// workloads measured at the pre-PR seed commit with the identical
// median-of-rounds methodology.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/task"
)

// baselines are the pre-PR numbers for each family, taken from the
// committed BENCH_PR7.json trajectory measured at 95016df (the state
// before history compaction, WAL segment rotation and COW chunk reclaim)
// on this machine. Re-using the committed trajectory keeps the baselines
// exactly the numbers past CI runs recorded; allocs/op are exact and
// session-independent, ns/op carry this single-core box's ~±8%
// run-to-run drift, so judge ns ratios with that margin. Families
// without a pre-PR equivalent (the compaction families did not exist;
// their in-run GC-off / unbounded ablation partners *are* their
// baselines) carry zeros.
var baselines = map[string]baseline{
	"spawn_copy_overhead":       {NsPerOp: 59922, AllocsPerOp: 480},
	"merge_many_structs_64x100": {NsPerOp: 581530, AllocsPerOp: 7939},
	"spawn_merge_roundtrip":     {NsPerOp: 1808, AllocsPerOp: 7},
	// Same workload as spawn_merge_roundtrip, run through the hook-bearing
	// RunWith entry point with tracing disabled. The observability layer
	// must be free when off (BenchmarkSpawnMergeTraceOff guards allocs/op
	// exactly).
	"spawn_merge_trace_off":      {NsPerOp: 2470, AllocsPerOp: 7},
	"queue_push_pop":             {NsPerOp: 90, AllocsPerOp: 2},
	"batched_transform":          {NsPerOp: 56493, AllocsPerOp: 513},
	"batched_transform_pairwise": {NsPerOp: 18441664, AllocsPerOp: 517},
	"remote_fanout_encode_once":  {NsPerOp: 648437, AllocsPerOp: 3307},
}

// roundtripAllocBudget is the committed allocation budget for one
// spawn-merge roundtrip: frame + shells + logs + scratch are all pooled,
// so a steady-state roundtrip performs at most this many allocations.
// `-gate` fails the run when the measured family exceeds it.
const roundtripAllocBudget = 8

// shardRouteAllocBudget is the committed budget for one routing lookup
// (ring Owner + live-router RouteOf): both are read-locked searches over
// prebuilt tables, so the steady state allocates nothing.
const shardRouteAllocBudget = 0

type baseline struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

type familyResult struct {
	NsPerOp             float64 `json:"ns_per_op"`
	AllocsPerOp         uint64  `json:"allocs_per_op"`
	BytesPerOp          uint64  `json:"bytes_per_op"`
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp uint64  `json:"baseline_allocs_per_op,omitempty"`
	SpeedupVsBaseline   float64 `json:"speedup_vs_baseline,omitempty"`
}

type trajectory struct {
	GOOS           string                  `json:"goos"`
	GOARCH         string                  `json:"goarch"`
	GOMAXPROCS     int                     `json:"gomaxprocs"`
	BenchTime      string                  `json:"benchtime"`
	Rounds         int                     `json:"rounds"`
	BaselineCommit string                  `json:"baseline_commit"`
	Families       map[string]familyResult `json:"families"`
	Order          []string                `json:"order"`
	ShardSpine     []spineEntry            `json:"shard_spine,omitempty"`
}

// family is one named workload. The bodies mirror the same-named
// benchmarks in bench_test.go — kept verbatim there so `go test -bench`
// and cmd/bench measure the same work.
type family struct {
	name string
	fn   func(b *testing.B)
}

func families() []family {
	return []family{
		// BenchmarkSpawnCopyOverhead: 20 no-op tasks spawned over 20
		// populated queues — the paper's per-run constant copy overhead.
		{"spawn_copy_overhead", func(b *testing.B) {
			b.ReportAllocs()
			const hosts = 20
			for i := 0; i < b.N; i++ {
				data := make([]mergeable.Mergeable, hosts)
				for j := range data {
					q := mergeable.NewQueue[int]()
					for k := 0; k < 5; k++ {
						q.Push(k)
					}
					data[j] = q
				}
				err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					for t := 0; t < hosts; t++ {
						ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error { return nil }, d...)
					}
					return ctx.MergeAll()
				}, data...)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		// BenchmarkMergeManyStructs 64×100 (recorded as ..._serial up to
		// BENCH_PR10.json, next to the deleted transform pool's ..._parallel).
		{"merge_many_structs_64x100", func(b *testing.B) { mergeManyStructs(b, 64, 100) }},
		// BenchmarkSpawnMergeRoundtrip: one child, one op, one merge.
		{"spawn_merge_roundtrip", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := mergeable.NewList(1, 2, 3)
				err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
						d[0].(*mergeable.List[int]).Append(5)
						return nil
					}, d[0])
					d[0].(*mergeable.List[int]).Append(4)
					return ctx.MergeAll()
				}, l)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		// BenchmarkSpawnMergeTraceOff: the roundtrip through RunWith with
		// every hook nil — the zero-cost-when-disabled guard's workload.
		{"spawn_merge_trace_off", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := mergeable.NewList(1, 2, 3)
				err := task.RunWith(task.RunConfig{}, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
						d[0].(*mergeable.List[int]).Append(5)
						return nil
					}, d[0])
					d[0].(*mergeable.List[int]).Append(4)
					return ctx.MergeAll()
				}, l)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		// BenchmarkMergeableQueue/push-pop: raw structure op cost.
		{"queue_push_pop", func(b *testing.B) {
			b.ReportAllocs()
			q := mergeable.NewQueue[int]()
			for i := 0; i < b.N; i++ {
				q.Push(i)
				if _, ok := q.PopFront(); !ok {
					b.Fatal("empty queue")
				}
				// Keep the op log from growing without bound.
				if i%1024 == 0 {
					q.Log().Commit(q.Log().TakeLocal())
					q.Log().Trim(q.Log().CommittedLen())
				}
			}
		}},
		// BenchmarkBatchedTransform: raw transform of run-heavy histories
		// (one long append run against an append run followed by a pop
		// run) through the batched run-length engine, with the pairwise
		// shape engine as the in-run ablation partner. Both produce
		// identical op sequences; the gap between the two families is the
		// run-granularity payoff.
		{"batched_transform", func(b *testing.B) {
			b.ReportAllocs()
			client, server := batchedTransformHistories()
			prev := ot.SetBatchedTransform(true)
			defer ot.SetBatchedTransform(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ot.TransformAgainst(client, server)
			}
		}},
		{"batched_transform_pairwise", func(b *testing.B) {
			b.ReportAllocs()
			client, server := batchedTransformHistories()
			prev := ot.SetBatchedTransform(false)
			defer ot.SetBatchedTransform(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ot.TransformAgainst(client, server)
			}
		}},
		// Compaction families (PR 9): the same long-lived spawn/merge wave
		// workload with history GC on (the production default) and off —
		// the ablation partner is the baseline. The gap in bytes/op is the
		// retained-history cost compaction reclaims; ns/op shows the trim
		// passes pay for themselves on long runs.
		{"compaction_history_gc_on", func(b *testing.B) {
			compactionWaves(b, task.HistoryGC{})
		}},
		{"compaction_history_gc_off", func(b *testing.B) {
			compactionWaves(b, task.HistoryGC{Disable: true})
		}},
		// Journaled variant: a multi-root-merge run against a 4 KiB WAL
		// rotation threshold with checkpoint pruning, versus one unbounded
		// segment keeping every checkpoint. Measures the full durability
		// path (fsyncs included), so ns/op dwarfs the in-memory families;
		// the comparison of interest is rotate vs unbounded.
		{"compaction_journal_rotate", func(b *testing.B) {
			compactionJournal(b, 4<<10, 2)
		}},
		{"compaction_journal_unbounded", func(b *testing.B) {
			compactionJournal(b, 0, 0)
		}},
		// BenchmarkRemoteFanout/encode-once: scatter one snapshot to a
		// 4-node cluster with a single serialization.
		{"remote_fanout_encode_once", func(b *testing.B) {
			b.ReportAllocs()
			const nodes = 4
			vals := make([]int, 512)
			for i := range vals {
				vals[i] = i
			}
			cluster := dist.NewCluster(nodes)
			defer cluster.Close()
			for i := 0; i < b.N; i++ {
				l := mergeable.NewList(vals...)
				err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					if _, err := cluster.SpawnRemoteMany(ctx, []int{0, 1, 2, 3}, "cmdbench-append", d[0]); err != nil {
						return err
					}
					return ctx.MergeAll()
				}, l)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// compactionWaves is the long-lived-structure workload behind the
// compaction_history_* families: 32 spawn/merge waves over a list and a
// counter, with the list's value size clamped so retained op history is
// the only quantity the GC knob changes.
func compactionWaves(b *testing.B, h task.HistoryGC) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := mergeable.NewList[int]()
		cnt := mergeable.NewCounter(0)
		err := task.RunWith(task.RunConfig{History: h}, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			for wave := 0; wave < 32; wave++ {
				ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					for k := 0; k < 8; k++ {
						d[0].(*mergeable.List[int]).Append(k)
					}
					d[1].(*mergeable.Counter).Inc()
					return nil
				}, d...)
				for k := 0; k < 8; k++ {
					d[0].(*mergeable.List[int]).Append(-k)
				}
				if err := ctx.MergeAll(); err != nil {
					return err
				}
				if lst := d[0].(*mergeable.List[int]); lst.Len() > 64 {
					lst.DeleteN(0, lst.Len()-64)
				}
			}
			return nil
		}, l, cnt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// compactionJournal is the durability-path workload behind the
// compaction_journal_* families: one journaled 8-wave run per iteration
// in a fresh scratch directory, checkpointing on every root merge.
func compactionJournal(b *testing.B, segBytes int64, retain int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-journal-*")
		if err != nil {
			b.Fatal(err)
		}
		l := mergeable.NewList(0)
		err = journal.Run(dir, journal.Options{
			Encode:            dist.EncodeSnapshot,
			Decode:            dist.DecodeSnapshot,
			CheckpointEvery:   1,
			SegmentBytes:      segBytes,
			RetainCheckpoints: retain,
		}, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			for wave := 0; wave < 8; wave++ {
				w := wave
				ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
					d[0].(*mergeable.List[int]).Append(w)
					return nil
				}, d...)
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			return nil
		}, l)
		os.RemoveAll(dir)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// batchedTransformHistories builds the run-heavy operation histories the
// batched_transform families transform: a 512-op client append run
// against a 256-op server append run followed by a 128-op pop run — the
// shape a producer task racing a consumer task leaves in its log.
func batchedTransformHistories() (client, server []ot.Op) {
	client = make([]ot.Op, 512)
	for i := range client {
		client[i] = ot.SeqInsert{Pos: i, Elems: []any{i}}
	}
	server = make([]ot.Op, 0, 384)
	for i := 0; i < 256; i++ {
		server = append(server, ot.SeqInsert{Pos: i, Elems: []any{-i}})
	}
	for i := 0; i < 128; i++ {
		server = append(server, ot.SeqDelete{Pos: 0, N: 1})
	}
	return client, server
}

func mergeManyStructs(b *testing.B, structs, ops int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data := make([]mergeable.Mergeable, structs)
		for j := range data {
			l := mergeable.NewList[int]()
			for k := 0; k < 8; k++ {
				l.Append(k)
			}
			data[j] = l
		}
		err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			ch := ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
				for _, m := range d {
					l := m.(*mergeable.List[int])
					for k := 0; k < ops; k++ {
						l.Set(k%8, k)
					}
				}
				return nil
			}, d...)
			for _, m := range d {
				l := m.(*mergeable.List[int])
				for k := 0; k < ops; k++ {
					l.Set((k+3)%8, -k)
				}
			}
			return ctx.MergeAllFromSet([]*task.Task{ch})
		}, data...)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// spanDump runs a fixed deterministic workload traced, diffs its span
// tree against an existing dump at path (a prior commit's run — any
// divergence localizes a behavior change to the exact merge), then
// rewrites path with the current tree as JSON.
func spanDump(path string) error {
	tr := obs.New()
	data := []mergeable.Mergeable{mergeable.NewList(0), mergeable.NewCounter(0)}
	err := task.RunObserved(tr, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
		for i := 0; i < 8; i++ {
			i := i
			ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
				d[0].(*mergeable.List[int]).Append(i)
				d[1].(*mergeable.Counter).Add(int64(i))
				return nil
			}, d...)
		}
		return ctx.MergeAll()
	}, data...)
	if err != nil {
		return fmt.Errorf("spandump workload: %w", err)
	}
	tree := tr.Tree()
	if old, err := os.ReadFile(path); err == nil {
		var prev obs.Tree
		if err := json.Unmarshal(old, &prev); err != nil {
			return fmt.Errorf("spandump: parse existing %s: %w", path, err)
		}
		if diffs := obs.Diff(&prev, tree); len(diffs) > 0 {
			fmt.Printf("span tree diverges from %s:\n", path)
			for _, d := range diffs {
				fmt.Println("  " + d)
			}
		} else {
			fmt.Printf("span tree matches %s (fingerprint %016x)\n", path, tree.Fingerprint())
		}
	}
	buf, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	quick := flag.Bool("quick", false, "CI smoke mode: one short round per family")
	out := flag.String("out", "BENCH_PR10.json", "trajectory file to write")
	gate := flag.Bool("gate", false, "fail (exit 1) if spawn_merge_roundtrip or shard_route exceed their allocs/op budgets")
	familyFilter := flag.String("family", "", "only run families whose name contains this substring")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured families to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the measured families to this file")
	spandump := flag.String("spandump", "", "write (and diff against) a reference span-tree JSON dump at this path")
	testing.Init()
	flag.Parse()

	dist.RegisterListCodec[int]("cmdbench-list-int")
	dist.RegisterFunc("cmdbench-append", func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Append(1)
		return nil
	})

	if *spandump != "" {
		if err := spanDump(*spandump); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote span tree to %s\n", *spandump)
	}

	benchtime, rounds := "300ms", 5
	if *quick {
		benchtime, rounds = "30ms", 1
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	traj := trajectory{
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		BenchTime:      benchtime,
		Rounds:         rounds,
		BaselineCommit: "95016df",
		Families:       map[string]familyResult{},
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	fams := append(families(), shardFamilies()...)
	for _, f := range fams {
		if *familyFilter != "" && !strings.Contains(f.name, *familyFilter) {
			continue
		}
		nsSamples := make([]float64, 0, rounds)
		var last testing.BenchmarkResult
		for r := 0; r < rounds; r++ {
			last = testing.Benchmark(f.fn)
			if last.N == 0 {
				fmt.Fprintf(os.Stderr, "bench: family %s did not run\n", f.name)
				os.Exit(1)
			}
			nsSamples = append(nsSamples, float64(last.T.Nanoseconds())/float64(last.N))
		}
		sort.Float64s(nsSamples)
		med := nsSamples[len(nsSamples)/2]
		res := familyResult{
			NsPerOp:     med,
			AllocsPerOp: uint64(last.AllocsPerOp()),
			BytesPerOp:  uint64(last.AllocedBytesPerOp()),
		}
		if base, ok := baselines[f.name]; ok {
			res.BaselineNsPerOp = base.NsPerOp
			res.BaselineAllocsPerOp = base.AllocsPerOp
			if med > 0 {
				res.SpeedupVsBaseline = base.NsPerOp / med
			}
		}
		traj.Families[f.name] = res
		traj.Order = append(traj.Order, f.name)
		fmt.Printf("%-36s %12.0f ns/op %8d allocs/op", f.name, res.NsPerOp, res.AllocsPerOp)
		if res.SpeedupVsBaseline > 0 {
			fmt.Printf("   %.2fx vs baseline", res.SpeedupVsBaseline)
		}
		fmt.Println()
	}

	// The shard spine sweep is a wall-clock measurement (client throughput
	// and merge-latency quantiles across topologies), not a testing.B
	// family — it records absolute numbers per topology point rather than
	// ns/op medians.
	if *familyFilter == "" || strings.Contains("shard_spine", *familyFilter) {
		spine, err := runShardSpine(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		traj.ShardSpine = spine
	}

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d families, benchtime %s × %d rounds)\n", *out, len(traj.Families), benchtime, rounds)

	if *gate {
		budgets := []struct {
			family string
			budget uint64
		}{
			{"spawn_merge_roundtrip", roundtripAllocBudget},
			{"shard_route", shardRouteAllocBudget},
		}
		for _, g := range budgets {
			res, ok := traj.Families[g.family]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: gate: %s was filtered out of this run\n", g.family)
				os.Exit(1)
			}
			allocs := res.AllocsPerOp
			if allocs > g.budget {
				// A single short quick-mode round can catch the frame, shell
				// and scratch pools cold and amortize their warm-up over too
				// few iterations; re-measure once warm before declaring a
				// regression.
				for _, f := range fams {
					if f.name == g.family {
						allocs = uint64(testing.Benchmark(f.fn).AllocsPerOp())
					}
				}
			}
			if allocs > g.budget {
				fmt.Fprintf(os.Stderr, "bench: gate FAILED: %s allocs/op = %d, budget %d\n",
					g.family, allocs, g.budget)
				os.Exit(1)
			}
			fmt.Printf("gate: %s allocs/op %d within budget %d\n", g.family, allocs, g.budget)
		}
	}
}
