// Benchmarks regenerating the paper's evaluation (one benchmark family
// per figure/claim) plus microbenchmarks for the framework's moving parts.
//
// BenchmarkFigure3 measures the four simulation engines across host
// workloads — the series of Figure 3. The simulation is run at a quarter
// of the paper's TTL so `go test -bench=.` stays tractable; cmd/figure3
// runs the full-scale sweep and the Section III analysis.
package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cow"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/mergeable"
	"repro/internal/netsim"
	"repro/internal/ot"
	"repro/internal/task"
)

// benchConfig is the paper's topology (20 hosts, 100 messages) at a
// quarter of the TTL.
func benchConfig(workload int) netsim.Config {
	return netsim.Config{Hosts: 20, Messages: 100, TTL: 25, Workload: workload, Seed: 1}
}

// BenchmarkFigure3 regenerates the Figure 3 series: simulation time per
// engine and host workload.
func BenchmarkFigure3(b *testing.B) {
	for _, l := range []int{0, 500, 1000} {
		for _, name := range bench.EngineOrder {
			b.Run(fmt.Sprintf("%s/l=%d", name, l), func(b *testing.B) {
				cfg := benchConfig(l)
				for i := 0; i < b.N; i++ {
					r, err := netsim.RunEngine(name, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if r.Hops != cfg.TotalHops() {
						b.Fatalf("hops = %d", r.Hops)
					}
				}
			})
		}
	}
}

// BenchmarkSpawnCopyOverhead isolates the paper's "constant overhead of
// about 400 milliseconds per run ... because on Spawn the initial data
// structures have to be copied for every spawned task (i.e. 20 tasks with
// 20 queues each)": it spawns 20 no-op tasks over 20 populated queues and
// merges them.
func BenchmarkSpawnCopyOverhead(b *testing.B) {
	const hosts = 20
	for i := 0; i < b.N; i++ {
		data := make([]Mergeable, hosts)
		for j := range data {
			q := NewQueue[int]()
			for k := 0; k < 5; k++ {
				q.Push(k)
			}
			data[j] = q
		}
		err := Run(func(ctx *Ctx, d []Mergeable) error {
			for t := 0; t < hosts; t++ {
				ctx.Spawn(func(ctx *Ctx, d []Mergeable) error { return nil }, d...)
			}
			return ctx.MergeAll()
		}, data...)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// mergeManyStructsBody is one merge-scaling workload: a parent and one
// child mutate `structs` lists with `ops` Sets each, then merge. The child
// contributes on every structure, so the merge pays the full
// compact/transform cost per position — the work the parallel engine fans
// out.
func mergeManyStructsBody(b *testing.B, structs, ops int) {
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

// BenchmarkMergeManyStructs is the merge-scaling family: 1/8/64 structures
// × 10/100 concurrent operations each.
func BenchmarkMergeManyStructs(b *testing.B) {
	for _, structs := range []int{1, 8, 64} {
		for _, ops := range []int{10, 100} {
			b.Run(fmt.Sprintf("structs=%d/ops=%d", structs, ops), func(b *testing.B) {
				mergeManyStructsBody(b, structs, ops)
			})
		}
	}
}

// BenchmarkCloneDeepVsCOW is the ablation for the paper's announced
// copy-on-write optimization: cloning task data as a deep-copied slice
// (what Spawn does today) versus an O(1) persistent-vector clone.
func BenchmarkCloneDeepVsCOW(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("deep-copy/n=%d", n), func(b *testing.B) {
			src := make([]int, n)
			for i := range src {
				src[i] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := append([]int(nil), src...)
				cp[0] = i // one write after the copy
				sink = cp[0]
			}
		})
		b.Run(fmt.Sprintf("cow/n=%d", n), func(b *testing.B) {
			src := cow.New[int]()
			for i := 0; i < n; i++ {
				src = src.Append(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := src // O(1) structural share
				cp = cp.Set(0, i)
				sink = cp.Get(0)
			}
		})
	}
}

var sink int

// BenchmarkOTTransform measures the transformation control algorithm —
// the per-merge cost of serializing two concurrent operation sequences.
func BenchmarkOTTransform(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			client := make([]ot.Op, n)
			server := make([]ot.Op, n)
			for i := 0; i < n; i++ {
				client[i] = ot.SeqInsert{Pos: i, Elems: []any{i}}
				server[i] = ot.SeqDelete{Pos: 0, N: 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ot.TransformAgainst(client, server)
			}
		})
	}
}

// BenchmarkBatchedTransform measures the batched run-length engine on
// run-heavy histories — a 512-op client append run against a 256-op
// server append run followed by a 128-op pop run — with the pairwise
// shape engine as the ablation. Both engines produce identical op
// sequences (FuzzBatchedTransform pins that); the gap is the payoff of
// walking the transform grid at run granularity. Mirrored verbatim as
// cmd/bench's batched_transform / batched_transform_pairwise families.
func BenchmarkBatchedTransform(b *testing.B) {
	histories := func() (client, server []ot.Op) {
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
	for _, batched := range []bool{true, false} {
		name := "batched"
		if !batched {
			name = "pairwise"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			client, server := histories()
			prev := ot.SetBatchedTransform(batched)
			defer ot.SetBatchedTransform(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ot.TransformAgainst(client, server)
			}
		})
	}
}

// BenchmarkCompaction measures the payoff of operation-log compaction:
// transforming a drained queue's operations (n pops) against a concurrent
// history, raw versus compacted. The transform is quadratic, so the
// compacted path collapses to a single-op transform.
func BenchmarkCompaction(b *testing.B) {
	for _, n := range []int{16, 128} {
		pops := make([]ot.Op, n)
		for i := range pops {
			pops[i] = ot.SeqDelete{Pos: 0, N: 1}
		}
		server := make([]ot.Op, n)
		for i := range server {
			server[i] = ot.SeqInsert{Pos: i, Elems: []any{i}}
		}
		b.Run(fmt.Sprintf("raw/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ot.TransformAgainst(pops, server)
			}
		})
		b.Run(fmt.Sprintf("compacted/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ot.TransformAgainst(ot.CompactSeq(pops), server)
			}
		})
	}
}

// BenchmarkSpawnMergeRoundtrip is the framework's minimal unit of work:
// spawn one child over one small list, child appends, merge.
func BenchmarkSpawnMergeRoundtrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := NewList(1, 2, 3)
		err := Run(func(ctx *Ctx, d []Mergeable) error {
			ctx.Spawn(func(ctx *Ctx, d []Mergeable) error {
				d[0].(*List[int]).Append(4)
				return nil
			}, d[0])
			return ctx.MergeAll()
		}, l)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// spawnMergeRoundtripBody is the minimal spawn/merge unit of work shared
// by the roundtrip benchmark and the tracing-overhead guards, run through
// an arbitrary runner so the same workload prices Run, RunWith and
// RunObserved against each other.
func spawnMergeRoundtripBody(b *testing.B, run func(fn Func, data ...Mergeable) error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewList(1, 2, 3)
		err := run(func(ctx *Ctx, d []Mergeable) error {
			ctx.Spawn(func(ctx *Ctx, d []Mergeable) error {
				d[0].(*List[int]).Append(4)
				return nil
			}, d[0])
			return ctx.MergeAll()
		}, l)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnMergeTraceOff runs the roundtrip workload through the
// observability-capable runner with tracing disabled. Its allocs/op must
// equal BenchmarkSpawnMergeRoundtrip's — the disabled tracer may cost
// nothing on the hot path. TestTraceOffAddsNoAllocations enforces that
// equality; this benchmark keeps the number visible in `go test -bench`
// output and in cmd/bench's trajectory JSON.
func BenchmarkSpawnMergeTraceOff(b *testing.B) {
	spawnMergeRoundtripBody(b, func(fn Func, data ...Mergeable) error {
		return RunWith(RunConfig{}, fn, data...)
	})
}

// BenchmarkSpawnMergeTraceOn prices the enabled tracer on the same
// workload, so the cost of turning observability on is a published number
// rather than folklore.
func BenchmarkSpawnMergeTraceOn(b *testing.B) {
	tr := NewTracer()
	spawnMergeRoundtripBody(b, func(fn Func, data ...Mergeable) error {
		return RunObserved(tr, fn, data...)
	})
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

// BenchmarkSyncRoundtrip measures one Sync cycle — the per-simulation-
// round cost each host pays in Listing 4.
func BenchmarkSyncRoundtrip(b *testing.B) {
	c := mergeable.NewCounter(0)
	rounds := b.N
	err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
		h := ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			for {
				d[0].(*mergeable.Counter).Inc()
				if err := ctx.Sync(); err != nil {
					return nil
				}
			}
		}, d[0])
		b.ResetTimer()
		for i := 0; i < rounds; i++ {
			if err := ctx.MergeAll(); err != nil {
				return err
			}
		}
		b.StopTimer()
		h.Abort()
		return nil
	}, c)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMergeableQueue measures the structure operations the
// simulation leans on.
func BenchmarkMergeableQueue(b *testing.B) {
	b.Run("push-pop", func(b *testing.B) {
		q := NewQueue[int]()
		for i := 0; i < b.N; i++ {
			q.Push(i)
			if _, ok := q.PopFront(); !ok {
				b.Fatal("empty")
			}
			// Keep the op log from growing without bound.
			if i%1024 == 0 {
				q.Log().Commit(q.Log().TakeLocal())
				q.Log().Trim(q.Log().CommittedLen())
			}
		}
	})
	b.Run("clone/n=100", func(b *testing.B) {
		q := NewQueue[int]()
		for i := 0; i < 100; i++ {
			q.Push(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = q.CloneValue()
		}
	})
}

// BenchmarkScalingHosts probes the scalability question the paper's
// conclusion raises: Spawn & Merge simulation time as the host count
// grows with total work held constant. More hosts mean more parallelism
// per round but more copies per sync.
func BenchmarkScalingHosts(b *testing.B) {
	for _, hosts := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			cfg := netsim.Config{Hosts: hosts, Messages: 100, TTL: 25, Workload: 200, Seed: 1, Routing: netsim.RouteRing}
			for i := 0; i < b.N; i++ {
				if _, err := netsim.RunSpawnMerge(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCOWAblation measures the paper's announced copy-on-write
// optimization end to end: the same Spawn & Merge simulation with
// deep-copied structures versus structurally shared (FastQueue/FastList)
// ones. Results are bit-identical (enforced by netsim's tests); only the
// constant copying overhead changes.
func BenchmarkCOWAblation(b *testing.B) {
	for _, name := range []string{"spawnmerge-det", "spawnmerge-det-cow"} {
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(0) // l=0 isolates the copy overhead
			for i := 0; i < b.N; i++ {
				if _, err := netsim.RunEngine(name, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func init() {
	dist.RegisterListCodec[int]("bench-list-int")
	dist.RegisterFunc("bench-append", func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Append(1)
		return nil
	})
	dist.RegisterFunc("bench-sync", func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
		for i := 0; i < 8; i++ {
			data[0].(*mergeable.List[int]).Append(i)
			if err := wctx.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkRemoteSpawnRoundtrip prices the distributed extension's unit
// of work: serialize snapshots, ship to a worker node, run, ship the
// operations back, merge.
func BenchmarkRemoteSpawnRoundtrip(b *testing.B) {
	cluster := dist.NewCluster(1)
	defer cluster.Close()
	for i := 0; i < b.N; i++ {
		l := mergeable.NewList(1, 2, 3)
		err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "bench-append", d[0])
			return ctx.MergeAll()
		}, l)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteSyncRoundtrip prices one remote Sync cycle: ops over the
// wire, local merge, snapshot back, adopt.
func BenchmarkRemoteSyncRoundtrip(b *testing.B) {
	cluster := dist.NewCluster(1)
	defer cluster.Close()
	b.ReportMetric(8, "syncs/op")
	for i := 0; i < b.N; i++ {
		l := mergeable.NewList[int]()
		err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			h := cluster.SpawnRemote(ctx, 0, "bench-sync", d[0])
			for s := 0; s < 9; s++ {
				if err := ctx.MergeAllFromSet([]*task.Task{h}); err != nil {
					return err
				}
			}
			return nil
		}, l)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteFanout prices scattering the same snapshot to every node
// of a cluster: per-node-encode serializes the structures once per
// SpawnRemote, encode-once serializes them once per fan-out and shares the
// bytes (SpawnRemoteMany). The list is large enough for the encode to be a
// visible share of the round trip.
func BenchmarkRemoteFanout(b *testing.B) {
	const nodes = 4
	vals := make([]int, 512)
	for i := range vals {
		vals[i] = i
	}
	cluster := dist.NewCluster(nodes)
	defer cluster.Close()
	b.Run("per-node-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := mergeable.NewList(vals...)
			err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
				for n := 0; n < nodes; n++ {
					cluster.SpawnRemote(ctx, n, "bench-append", d[0])
				}
				return ctx.MergeAll()
			}, l)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := mergeable.NewList(vals...)
			err := task.Run(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
				if _, err := cluster.SpawnRemoteMany(ctx, []int{0, 1, 2, 3}, "bench-append", d[0]); err != nil {
					return err
				}
				return ctx.MergeAll()
			}, l)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMapReduce measures the deterministic map/reduce framework on a
// synthetic word-count corpus.
func BenchmarkMapReduce(b *testing.B) {
	corpus := make([]string, 64)
	for i := range corpus {
		corpus[i] = fmt.Sprintf("line %d with some shared words and token%d", i, i%7)
	}
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := mapreduce.Run(corpus, func(line string, emit func(string, int)) {
				for _, w := range strings.Fields(line) {
					emit(w, 1)
				}
			}, func(a, b int) int { return a + b }, mapreduce.Options{MapShards: 8, ReduceShards: 4})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := map[string]int{}
			for _, line := range corpus {
				for _, w := range strings.Fields(line) {
					out[w]++
				}
			}
			if len(out) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkParallelBFS measures the level-synchronous BFS on a random
// graph across task counts.
func BenchmarkParallelBFS(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	const n = 2000
	g := graph.New(n)
	for e := 0; e < 4*n; e++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	for _, tasks := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.BFS(g, 0, tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetVsNondetGap reports the Section III observation that the
// deterministic Spawn & Merge simulation runs slightly faster than the
// hash-routing one (messages clustering on one host cost extra cycles).
func BenchmarkDetVsNondetGap(b *testing.B) {
	for _, name := range []string{"spawnmerge-nondet", "spawnmerge-det"} {
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(100)
			for i := 0; i < b.N; i++ {
				if _, err := netsim.RunEngine(name, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
