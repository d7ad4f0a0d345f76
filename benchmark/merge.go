package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
)

// The merge workloads drive the runtime through the facade only: a root
// task spawns children over a few structures, everybody edits their own
// copies, MergeAll folds the histories together with OT. merge_runs
// produces long runs (push, pop, append), merge_scatter produces none
// (random positions): the same layers, used the two ways they behave most
// differently.
const (
	mergeChildren = 8
	mergeStructs  = 4 // queues and lists in merge_runs, lists in merge_scatter

	runsQueueLen = 256
	runsPush     = 8192
	runsPop      = 2048
	runsParent   = 4096

	scatterListLen = 1024
	scatterOps     = 256
)

type mergeBench struct {
	scatter bool
	// merge_runs inputs.
	queueInit [][]int // per queue
	childVals [][]int // per child: pushed to its queue, appended to its list
	parentVal [][]int // per list
	// merge_scatter inputs.
	listInit [][]int
	scripts  [][]scatterOp // per child; the parent's is last

	opsPerCycle int64
	want        []uint64 // per structure: the fingerprint every cycle must repeat
}

func setupMerge(scatter bool) func(*runCtx) (instance, error) {
	return func(rc *runCtx) (instance, error) {
		b := &mergeBench{scatter: scatter}
		warm := 20
		if scatter {
			r := newRNG(rc.seed, "merge_scatter")
			b.listInit = fill(mergeStructs, func() []int { return r.ints(scatterListLen) })
			b.scripts = fill(mergeChildren+1, func() []scatterOp { return scatterScript(r, mergeStructs, scatterListLen, scatterOps) })
			b.opsPerCycle = (mergeChildren + 1) * scatterOps
			warm = 5
		} else {
			r := newRNG(rc.seed, "merge_runs")
			b.queueInit = fill(mergeStructs, func() []int { return r.ints(runsQueueLen) })
			b.childVals = fill(mergeChildren, func() []int { return r.ints(runsPush) })
			b.parentVal = fill(mergeStructs, func() []int { return r.ints(runsParent) })
			b.opsPerCycle = mergeChildren*(2*runsPush+runsPop) + mergeStructs*runsParent
		}
		for i := 0; i < warm; i++ {
			if _, _, ok, err := b.cycle(nil, nil); err != nil || !ok {
				return nil, fmt.Errorf("warm-up cycle wrong (err %v)", err)
			}
		}
		return b, nil
	}
}

// cycle builds fresh structures, runs one spawn → work → MergeAll and
// verifies the merged structures. Only the run itself is timed; edits is
// the part of it the root spent applying its own edits.
func (b *mergeBench) cycle(rec *recorder, tracer *repro.Tracer) (elapsed, edits time.Duration, ok bool, err error) {
	var data []repro.Mergeable
	var root repro.Func
	if b.scatter {
		for _, init := range b.listInit {
			data = append(data, repro.NewList(init...))
		}
		apply := func(d []repro.Mergeable, script []scatterOp) {
			for _, op := range script {
				l := d[op.list].(*repro.List[int])
				if op.ins {
					l.Insert(op.pos, op.val)
				} else {
					l.Delete(op.pos)
				}
			}
		}
		root = func(ctx *repro.Ctx, d []repro.Mergeable) error {
			for c := 0; c < mergeChildren; c++ {
				ctx.Spawn(func(_ *repro.Ctx, d []repro.Mergeable) error {
					apply(d, b.scripts[c])
					return nil
				}, d...)
			}
			start := time.Now()
			apply(d, b.scripts[mergeChildren])
			edits = time.Since(start)
			return ctx.MergeAll()
		}
	} else {
		for _, init := range b.queueInit {
			data = append(data, repro.NewQueue(init...))
		}
		for range b.parentVal {
			data = append(data, repro.NewList[int]())
		}
		root = func(ctx *repro.Ctx, d []repro.Mergeable) error {
			for c := 0; c < mergeChildren; c++ {
				ctx.Spawn(func(_ *repro.Ctx, d []repro.Mergeable) error {
					q := d[c%mergeStructs].(*repro.Queue[int])
					l := d[mergeStructs+c%mergeStructs].(*repro.List[int])
					for _, v := range b.childVals[c] {
						q.Push(v)
					}
					for i := 0; i < runsPop; i++ {
						q.PopFront()
					}
					l.Append(b.childVals[c]...)
					return nil
				}, d...)
			}
			start := time.Now()
			for i, vals := range b.parentVal {
				d[mergeStructs+i].(*repro.List[int]).Append(vals...)
			}
			edits = time.Since(start)
			return ctx.MergeAll()
		}
	}

	elapsed = rec.call("repro.RunWith", func() {
		if tracer != nil {
			err = repro.RunWith(repro.RunConfig{Obs: tracer}, root, data...)
		} else {
			err = repro.Run(root, data...)
		}
	})
	if err != nil {
		return 0, 0, false, err
	}
	ok = true
	for i, m := range data {
		fp := m.Fingerprint()
		if i == len(b.want) {
			b.want = append(b.want, fp)
		}
		ok = ok && fp == b.want[i]
	}
	if !b.scatter {
		// Appends never conflict, so the lists' sizes are known exactly.
		for i := range b.parentVal {
			want := runsParent + mergeChildren/mergeStructs*runsPush
			ok = ok && data[mergeStructs+i].(*repro.List[int]).Len() == want
		}
	}
	return elapsed, edits, ok, nil
}

func (b *mergeBench) measure(rc *runCtx) (*measurement, error) {
	m := &measurement{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var done []time.Time
	for time.Since(start) < rc.budget {
		d, _, ok, err := b.cycle(nil, nil)
		if err != nil {
			return nil, err
		}
		m.attempted++
		if !ok {
			m.failed++
		}
		m.lat, done = append(m.lat, d), append(done, time.Now())
	}
	runtime.ReadMemStats(&m1)
	m.rates = cycleRates(start, done, b.opsPerCycle)
	m.allocBytes, m.allocOps = m1.TotalAlloc-m0.TotalAlloc, m.attempted*b.opsPerCycle
	return m, nil
}

func (b *mergeBench) layers(rc *runCtx, out *layerSet) error {
	if err := probes(rc.budget/10, out); err != nil {
		return err
	}
	var ref samples
	for start := time.Now(); len(ref) < 5 || time.Since(start) < rc.budget*2/10; {
		d, _, ok, err := b.cycle(nil, nil)
		if err != nil || !ok {
			return fmt.Errorf("reference cycle wrong (err %v)", err)
		}
		ref = append(ref, d)
	}

	tracer := repro.NewTracer()
	g := startGauge()
	var lat, edits samples
	for start := time.Now(); len(lat) < 5 || time.Since(start) < rc.budget*7/10; {
		d, e, ok, err := b.cycle(rc.rec, tracer)
		if err != nil {
			return err
		}
		out.attempted++
		if !ok {
			out.failed++
		}
		lat, edits = append(lat, d), append(edits, e)
	}
	cycles := float64(len(lat))
	g.finish(out, int64(cycles)*b.opsPerCycle)

	spans := spanSums(tracer)
	perCycle := func(kind string) float64 { return 1e3 * spans[kind] / cycles }
	out.set("task.spawn_ms", perCycle("spawn"))
	out.set("task.merge_ms", perCycle("merge"))
	out.set("task.sync_ms", perCycle("sync"))
	out.set("ot.transform_ms", perCycle("transform"))
	out.set("mergeable.apply_ms", perCycle("apply"))
	out.set("ot.transform_ops", float64(tracer.Counters().Get("ops.transform"))/cycles)
	// Transform and apply spans nest inside merge spans, so the root's
	// cycle is spawn + its own edits + merge + whatever none of them covers
	// (waiting for children still editing, starting and ending the run).
	mean, edit := ms(lat.mean()), ms(edits.mean())
	out.set("mergeable.edit_ms", edit)
	out.set("task.unexplained_ms", mean-perCycle("spawn")-edit-perCycle("merge"))
	out.set("obs.trace_overhead_share", ratio(ms(lat.sorted().pct(0.5))-ms(ref.sorted().pct(0.5)), ms(ref.sorted().pct(0.5))))
	out.notef("%d traced cycles, mean %.3f ms = spawn %.3f + root's edits %.3f + merge %.3f (transform %.3f, apply %.3f) + unexplained %.3f; obs spans cover %.0f%%",
		len(lat), mean, perCycle("spawn"), edit, perCycle("merge"), perCycle("transform"), perCycle("apply"),
		mean-perCycle("spawn")-edit-perCycle("merge"), 100*ratio(perCycle("spawn")+perCycle("merge"), mean))
	return nil
}

// spanSums returns the seconds the tracer's span histograms hold, by
// kind name. Kinds are read by name so the benchmark needs no import of
// the obs package.
func spanSums(t *repro.Tracer) map[string]float64 {
	out := map[string]float64{}
	for kind, h := range t.Histograms() {
		out[kind.String()] = h.Sum()
	}
	return out
}

func (b *mergeBench) close() {}
