package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
)

// The Figure 3 journey: spawn → copy → work → merge in the paper's own
// evaluation program. The untraced run repeats the deterministic Spawn &
// Merge engine; the traced run interleaves it with the conventional
// engine and the hash-routed one, which gives the overhead the paper
// reports (constant in l, shrinking as a share).
const (
	engDet    = "spawnmerge-det"
	engConv   = "conventional-det"
	engNondet = "spawnmerge-nondet"
)

type fig3 struct {
	cfg  netsim.Config
	seen map[string]uint64 // engine → the fingerprint every run must repeat
}

func setupFig3(l int) func(*runCtx) (instance, error) {
	return func(rc *runCtx) (instance, error) {
		cfg := netsim.DefaultConfig()
		cfg.Workload, cfg.Seed = l, rc.seed
		f := &fig3{cfg: cfg, seen: map[string]uint64{}}
		// Warm-up fills the runtime's pools and lets the heap reach its
		// working size; about a third of a second either way.
		warm := 4
		if l > 0 {
			warm = 1
		}
		for i := 0; i < warm; i++ {
			if _, ok, err := f.run(nil, engDet); err != nil || !ok {
				return nil, fmt.Errorf("warm-up run wrong (err %v)", err)
			}
		}
		return f, nil
	}
}

// run executes one simulation and verifies it: every hop processed, and
// the same fingerprint as every earlier run of that engine.
func (f *fig3) run(rec *recorder, engine string) (netsim.Result, bool, error) {
	var r netsim.Result
	var err error
	rec.call("netsim.RunEngine", func() { r, err = netsim.RunEngine(engine, f.cfg) })
	if err != nil {
		return r, false, err
	}
	want, ok := f.seen[engine]
	if !ok {
		f.seen[engine], want = r.Fingerprint, r.Fingerprint
	}
	return r, r.Hops == f.cfg.TotalHops() && r.Fingerprint == want, nil
}

func (f *fig3) measure(rc *runCtx) (*measurement, error) {
	m := &measurement{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var done []time.Time
	for time.Since(start) < rc.budget {
		r, ok, err := f.run(nil, engDet)
		if err != nil {
			return nil, err
		}
		m.attempted++
		if !ok {
			m.failed++
		}
		m.lat, done = append(m.lat, r.Elapsed), append(done, time.Now())
	}
	runtime.ReadMemStats(&m1)
	m.rates = cycleRates(start, done, f.cfg.TotalHops())
	m.allocBytes, m.allocOps = m1.TotalAlloc-m0.TotalAlloc, m.attempted*f.cfg.TotalHops()
	return m, nil
}

func (f *fig3) layers(rc *runCtx, out *layerSet) error {
	if err := probes(rc.budget/10, out); err != nil {
		return err
	}
	// An untraced stretch of the same engine is the base the traced,
	// interleaved stretch is compared with.
	var ref samples
	for start := time.Now(); len(ref) < 3 || time.Since(start) < rc.budget*2/10; {
		r, ok, err := f.run(nil, engDet)
		if err != nil || !ok {
			return fmt.Errorf("reference run wrong (err %v)", err)
		}
		ref = append(ref, r.Elapsed)
	}

	g := startGauge()
	lat := map[string]samples{}
	rounds := map[string]int64{}
	var hops int64
	for start := time.Now(); len(lat[engDet]) < 3 || time.Since(start) < rc.budget*7/10; {
		for _, engine := range []string{engDet, engConv, engNondet} {
			r, ok, err := f.run(rc.rec, engine)
			if err != nil {
				return err
			}
			out.attempted++
			if !ok {
				out.failed++
			}
			if prev, seen := rounds[engine]; seen && prev != r.Rounds {
				out.failed++
				out.notef("%s needed %d rounds, then %d: not deterministic", engine, prev, r.Rounds)
			}
			lat[engine], rounds[engine] = append(lat[engine], r.Elapsed), r.Rounds
			hops += r.Hops
		}
	}
	g.finish(out, hops)

	det, conv := lat[engDet].sorted().pct(0.5), lat[engConv].sorted().pct(0.5)
	out.set("netsim.det_ms_p50", ms(det))
	out.set("netsim.conv_ms_p50", ms(conv))
	out.set("netsim.nondet_ms_p50", ms(lat[engNondet].sorted().pct(0.5)))
	out.set("netsim.overhead_ms", ms(det-conv))
	out.set("netsim.overhead_pct", 100*ratio(ms(det-conv), ms(conv)))
	out.set("netsim.us_per_hop", us(det)/float64(f.cfg.TotalHops()))
	out.set("netsim.rounds_det", float64(rounds[engDet]))
	out.set("netsim.rounds_nondet", float64(rounds[engNondet]))
	out.set("obs.trace_overhead_share", ratio(ms(det)-ms(ref.sorted().pct(0.5)), ms(ref.sorted().pct(0.5))))
	out.notef("%d interleaved rounds of %s, %s, %s; the engines have no tracing hook, so the obs span rows are 0 here and the facade shapes (task.*, mergeable.clone_*) stand in", len(lat[engDet]), engDet, engConv, engNondet)
	return nil
}

func (f *fig3) close() {}
