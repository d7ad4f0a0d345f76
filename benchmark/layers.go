package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/collab"
	"repro/internal/memnet"
)

// perLayer are the numbers of single layers, all taken from outside the
// program: timed calls into public functions, the transport wrapper, the
// obs tracer option and the counters the program already publishes. A
// layer a workload never enters reports 0 there. README.md says which
// end-to-end metric each one should move, and on which workload.
var perLayer = []spec{
	// Figure 3 journey, internal/netsim engines run interleaved.
	{Name: "netsim.det_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netsim.conv_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netsim.nondet_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netsim.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "netsim.us_per_hop", Unit: "us", Better: "lower"},
	{Name: "netsim.rounds_det", Unit: "count", Better: "lower"},
	{Name: "netsim.rounds_nondet", Unit: "count", Better: "lower"},
	// internal/task through the facade, in the shapes the journeys use.
	{Name: "task.spawn_fanout_us", Unit: "us", Better: "lower"},
	{Name: "task.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "task.roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "task.sync_us", Unit: "us", Better: "lower"},
	// obs span histograms summed by kind: per cycle on merge_*, per 1000
	// client ops on spine_*.
	{Name: "task.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "task.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "task.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "ot.transform_ms", Unit: "ms", Better: "lower"},
	{Name: "mergeable.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "ot.transform_ops", Unit: "count", Better: "lower"},
	{Name: "mergeable.edit_ms", Unit: "ms", Better: "lower"},
	{Name: "task.unexplained_ms", Unit: "ms", Better: "lower"},
	// internal/mergeable copies.
	{Name: "mergeable.clone_us_queue", Unit: "us", Better: "lower"},
	{Name: "mergeable.clone_us_list1k", Unit: "us", Better: "lower"},
	{Name: "mergeable.clone_us_text4k", Unit: "us", Better: "lower"},
	// The spine, hop by hop.
	{Name: "collab.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.call_us_mean", Unit: "us", Better: "lower"},
	{Name: "collab.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.insert_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.client_leg_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.shard_leg_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.merge_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.merge_us_p99", Unit: "us", Better: "lower"},
	{Name: "collab.merge_us_mean", Unit: "us", Better: "lower"},
	{Name: "collab.client_self_us", Unit: "us", Better: "lower"},
	{Name: "collab.front_self_us", Unit: "us", Better: "lower"},
	{Name: "collab.host_self_us", Unit: "us", Better: "lower"},
	{Name: "collab.unexplained_us", Unit: "us", Better: "lower"},
	{Name: "memnet.rtt_us_64b", Unit: "us", Better: "lower"},
	{Name: "memnet.rtt_us_4k", Unit: "us", Better: "lower"},
	{Name: "collab.client_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "collab.shard_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "collab.client_writes_per_op", Unit: "1/op", Better: "lower"},
	{Name: "collab.shard_writes_per_op", Unit: "1/op", Better: "lower"},
	{Name: "collab.oplog_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "collab.ops_per_frame", Unit: "ops", Better: "higher"},
	{Name: "collab.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "collab.backlog_max_ops", Unit: "ops", Better: "lower"},
	{Name: "collab.gen_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "collab.over_limit_share", Unit: "ratio", Better: "lower"},
	{Name: "collab.oplog_delta_us", Unit: "us", Better: "lower"},
	{Name: "collab.refused_share", Unit: "ratio", Better: "lower"},
	{Name: "collab.retry_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.route_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.balance", Unit: "ratio", Better: "lower"},
	{Name: "shard.scaling_x", Unit: "x", Better: "higher"},
	// The measurement itself and the Go runtime underneath.
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "goruntime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "goruntime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "goruntime.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "goruntime.cpu_util", Unit: "ratio", Better: "higher"},
}

// rootLayers are the span names that have no parent by design: the
// benchmark's own calls into the program.
var rootLayers = map[string]bool{
	"netsim.RunEngine": true, "repro.RunWith": true,
	"collab.Flush": true, "collab.Insert": true, "collab.Delete": true, "collab.Get": true,
}

// layerSet collects one traced run's per-layer metrics.
type layerSet struct {
	vals      map[string]float64
	units     map[string]string
	attempted int64
	failed    int64
	notes     []string
	degraded  []string
}

func newLayerSet() *layerSet {
	s := &layerSet{vals: map[string]float64{}, units: map[string]string{}}
	for _, sp := range perLayer {
		s.vals[sp.Name], s.units[sp.Name] = 0, sp.Unit
	}
	return s
}

// set stores a metric; an undeclared name is a bug in the benchmark.
func (s *layerSet) set(name string, v float64) {
	if _, ok := s.units[name]; !ok {
		panic("benchmark: per-layer metric not declared: " + name)
	}
	s.vals[name] = v
}

func (s *layerSet) metrics() map[string]value {
	out := make(map[string]value, len(s.vals))
	for name, v := range s.vals {
		out[name] = value{v, s.units[name]}
	}
	return out
}

func (s *layerSet) notef(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// timeEach runs fn until budget is spent (at least atLeast times) and
// returns every duration.
func timeEach(budget time.Duration, atLeast int, fn func()) samples {
	var out samples
	for start := time.Now(); len(out) < atLeast || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		out = append(out, time.Since(t0))
	}
	return out
}

// timeBatches times fn in batches of n calls, for calls too short to time
// one by one, and returns the median time per call.
func timeBatches(budget time.Duration, n int, fn func()) time.Duration {
	per := timeEach(budget, 5, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}).sorted().pct(0.5)
	return per / time.Duration(n)
}

var sink any

// probes measures the layers both journeys stand on in the shapes they
// are used in, through public functions only. It does not depend on the
// workload and runs in every traced run, so every result line carries
// the floor its other numbers sit on.
func probes(budget time.Duration, out *layerSet) error {
	each := budget / 10
	noop := func(*repro.Ctx, []repro.Mergeable) error { return nil }

	// The netsim shape: 20 hosts, each handed copies of 20 queues, 20
	// trace lists and the hop counter.
	var runErr error
	fanout := timeEach(each, 20, func() {
		data := make([]repro.Mergeable, 0, 41)
		for i := 0; i < 20; i++ {
			data = append(data, repro.NewQueue(1, 2, 3, 4, 5))
		}
		for i := 0; i < 20; i++ {
			data = append(data, repro.NewList[uint64]())
		}
		data = append(data, repro.NewCounter(0))
		if err := repro.Run(func(ctx *repro.Ctx, d []repro.Mergeable) error {
			for i := 0; i < 20; i++ {
				ctx.Spawn(noop, d...)
			}
			return ctx.MergeAll()
		}, data...); err != nil {
			runErr = err
		}
	})
	out.set("task.spawn_fanout_us", us(fanout.sorted().pct(0.5)))

	// The smallest journey: one child, one op, one merge.
	list := repro.NewList[int]()
	roundtrip := func() {
		if err := repro.Run(func(ctx *repro.Ctx, d []repro.Mergeable) error {
			ctx.Spawn(func(_ *repro.Ctx, d []repro.Mergeable) error {
				d[0].(*repro.List[int]).Append(1)
				return nil
			}, d...)
			return ctx.MergeAll()
		}, list); err != nil {
			runErr = err
		}
	}
	out.set("task.roundtrip_us", us(timeBatches(each, 200, roundtrip)))
	const allocRuns = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		roundtrip()
	}
	runtime.ReadMemStats(&m1)
	out.set("task.roundtrip_allocs", float64((m1.Mallocs-m0.Mallocs+allocRuns/2)/allocRuns))

	// The shard-host shape: a connection task holding 32 documents and the
	// edit counter applies one op and syncs; the root merges whoever asks.
	var syncs samples
	data := make([]repro.Mergeable, 0, 33)
	for i := 0; i < 32; i++ {
		data = append(data, repro.NewText(strings.Join(initialDoc(i, 16), "")))
	}
	data = append(data, repro.NewCounter(0))
	if err := repro.Run(func(ctx *repro.Ctx, d []repro.Mergeable) error {
		ctx.Spawn(func(ctx *repro.Ctx, d []repro.Mergeable) error {
			doc, edits := d[0].(*repro.Text), d[32].(*repro.Counter)
			for start, i := time.Now(), 0; i < 50 || time.Since(start) < each; i++ {
				if i%2 == 0 {
					doc.Insert(0, "probe00;")
				} else {
					doc.Delete(0, markerLen)
				}
				edits.Inc()
				t0 := time.Now()
				if err := ctx.Sync(); err != nil {
					return err
				}
				syncs = append(syncs, time.Since(t0))
			}
			return nil
		}, d...)
		for {
			if _, err := ctx.MergeAny(); errors.Is(err, repro.ErrNothingToMerge) {
				return nil
			} else if err != nil {
				return err
			}
		}
	}, data...); err != nil {
		runErr = err
	}
	out.set("task.sync_us", us(syncs.sorted().pct(0.5)))
	if runErr != nil {
		return fmt.Errorf("probe: %w", runErr)
	}

	// Copies, the cost every Spawn and Sync pays per structure.
	clone := func(m repro.Mergeable) float64 {
		return us(timeBatches(each/2, 100, func() { sink = m.CloneValue() }))
	}
	out.set("mergeable.clone_us_queue", clone(repro.NewQueue(1, 2, 3, 4, 5)))
	out.set("mergeable.clone_us_list1k", clone(repro.NewList(newRNG(1, "clone").ints(1024)...)))
	out.set("mergeable.clone_us_text4k", clone(repro.NewText(strings.Join(initialDoc(0, 512), ""))))

	// The transport floor: one echo round trip, two of which sit under
	// every client op (client leg and shard leg).
	for _, p := range []struct {
		name string
		size int
	}{{"memnet.rtt_us_64b", 64}, {"memnet.rtt_us_4k", 4096}} {
		rtt, err := echoRTT(each, p.size)
		if err != nil {
			return err
		}
		out.set(p.name, us(rtt))
	}

	// Routing: the lookup every forwarded op pays, and how evenly the
	// ring spreads the benchmark's documents.
	initial := make(map[string]string, spineDocs)
	for i := 0; i < spineDocs; i++ {
		initial[docName(i)] = ""
	}
	srv, err := collab.ServeSharded(memnet.Listen(1), initial, collab.ShardedOptions{Shards: 2})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	names := srv.Names()
	perShard := map[int]int{}
	for _, n := range names {
		perShard[srv.RouteOf(n)]++
	}
	lo, hi := len(names), 0
	for _, id := range srv.ShardIDs() {
		lo, hi = min(lo, perShard[id]), max(hi, perShard[id])
	}
	out.set("shard.balance", ratio(float64(hi), float64(lo)))
	i := 0
	out.set("shard.route_ns", float64(timeBatches(each, 1000, func() {
		sink = srv.RouteOf(names[i%len(names)])
		i++
	}).Nanoseconds()))
	return srv.Shutdown()
}

// echoRTT returns the median round trip of size bytes through a memnet
// connection to an echoing goroutine.
func echoRTT(budget time.Duration, size int) (time.Duration, error) {
	l := memnet.Listen(1)
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echoServe(l)
	}()
	c, err := l.Dial()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, size)
	var ioErr error
	rtts := timeEach(budget, 50, func() {
		if _, err := c.Write(buf); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			ioErr = err
		}
	})
	c.Close()
	wg.Wait()
	return rtts.sorted().pct(0.5), ioErr
}

// echoServe accepts one connection and writes back whatever it reads.
func echoServe(l link) {
	c, err := l.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	buf := make([]byte, 8192)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			if _, werr := c.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// gauge reads the Go runtime around a traced leg: GC's share of CPU,
// allocations, CPU actually used against what the cores offered, and the
// peak of live heap sampled while the leg runs.
type gauge struct {
	start     time.Time
	mem0      runtime.MemStats
	cpu0      time.Duration
	gc0, all0 float64
	stop      chan struct{}
	done      chan struct{}
	peak      uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() (gc, all float64) {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startGauge() *gauge {
	g := &gauge{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&g.mem0)
	g.gc0, g.all0 = readGCCPU()
	g.cpu0, g.start = processCPU(), time.Now()
	go func() {
		defer close(g.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			g.peak = max(g.peak, heap[0].Value.Uint64())
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// finish stops sampling and stores the four goruntime.* metrics; ops is
// the leg's units of work.
func (g *gauge) finish(out *layerSet, ops int64) {
	wall, cpu := time.Since(g.start), processCPU()-g.cpu0
	close(g.stop)
	<-g.done
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	gc1, all1 := readGCCPU()
	out.set("goruntime.gc_cpu_share", ratio(gc1-g.gc0, all1-g.all0))
	out.set("goruntime.heap_peak_mb", float64(g.peak)/(1<<20))
	out.set("goruntime.allocs_per_op", ratio(float64(mem1.Mallocs-g.mem0.Mallocs), float64(ops)))
	out.set("goruntime.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.NumCPU())))
}
