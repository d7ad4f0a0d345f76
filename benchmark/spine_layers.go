package main

import "time"

// window brackets a stretch of spine traffic and reads everything the
// program and the wrappers publish before and after it, so warm-up and
// handshakes stay out of the per-layer numbers.
type window struct {
	rig   *spineRig
	start time.Time

	wall     time.Duration
	ops      int64
	calls    map[string]samples // by span name, both clients
	client   legSnapshot
	shard    legSnapshot
	mergeSum float64 // seconds inside the shards' merges ...
	mergeN   uint64  // ... and how many there were
	spans    map[string]float64
	xformOps int64
	server   map[string]int64 // server counter deltas
	clients  map[string]int64 // client counter deltas, summed
}

func (rig *spineRig) clientCounters() map[string]int64 {
	sum := map[string]int64{}
	for _, cl := range rig.clients {
		for k, v := range cl.c.Stats().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

func minus(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func (rig *spineRig) openWindow() *window {
	w := &window{rig: rig, spans: map[string]float64{}}
	w.ops, _, _ = rig.totals()
	for _, cl := range rig.clients {
		cl.calls = map[string]samples{}
	}
	if rig.p.metered {
		rig.cliLeg.reset()
		rig.shdLeg.reset()
		w.spans = spanSums(rig.tracer)
		w.xformOps = rig.tracer.Counters().Get("ops.transform")
	}
	w.mergeSum, w.mergeN = rig.srv.MergeLatency().Sum(), rig.srv.MergeLatency().Count()
	w.server, w.clients = rig.srv.Stats().Snapshot(), rig.clientCounters()
	w.start = time.Now()
	return w
}

// close ends the window. No request may be in flight.
func (w *window) close() {
	rig := w.rig
	w.wall = time.Since(w.start)
	after, _, _ := rig.totals()
	w.ops = after - w.ops
	w.calls = map[string]samples{}
	for _, cl := range rig.clients {
		for name, s := range cl.calls {
			w.calls[name] = append(w.calls[name], s...)
		}
	}
	if rig.p.metered {
		w.client, w.shard = rig.cliLeg.snapshot(), rig.shdLeg.snapshot()
		before := w.spans
		w.spans = spanSums(rig.tracer)
		for k := range w.spans {
			w.spans[k] -= before[k]
		}
		w.xformOps = rig.tracer.Counters().Get("ops.transform") - w.xformOps
	}
	w.mergeSum, w.mergeN = rig.srv.MergeLatency().Sum()-w.mergeSum, rig.srv.MergeLatency().Count()-w.mergeN
	w.server, w.clients = minus(rig.srv.Stats().Snapshot(), w.server), minus(rig.clientCounters(), w.clients)
}

// rate is the window's throughput in client ops per second.
func (w *window) rate() float64 { return ratio(float64(w.ops), w.wall.Seconds()) }

func (w *window) allCalls() samples {
	var out samples
	for _, s := range w.calls {
		out = append(out, s...)
	}
	return out
}

// hops stores the hop-by-hop numbers of one window. Self time is a span
// minus its children, from summed durations divided by client calls:
// call ⊃ client leg ⊃ shard leg ⊃ merge. The four rows client_self,
// front_self, host_self and merge_us_mean add up to call_us_mean, except
// for unexplained_us, which is non-zero when a call causes more or fewer
// than one shard merge.
func (w *window) hops(out *layerSet) {
	calls := w.allCalls()
	n := float64(len(calls))
	perCall := func(total time.Duration) float64 { return ratio(us(total), n) }
	callMean := perCall(calls.sum())
	clientLeg, shardLeg := perCall(w.client.durs.sum()), perCall(w.shard.durs.sum())
	mergePerCall := ratio(w.mergeSum*1e6, n)
	mergeMean := ratio(w.mergeSum*1e6, float64(w.mergeN))

	out.set("collab.call_us_p50", us(calls.sorted().pct(0.5)))
	out.set("collab.call_us_mean", callMean)
	out.set("collab.get_us_p50", us(w.calls["collab.Get"].sorted().pct(0.5)))
	out.set("collab.insert_us_p50", us(w.calls["collab.Insert"].sorted().pct(0.5)))
	out.set("collab.client_leg_us_p50", us(w.client.durs.sorted().pct(0.5)))
	out.set("collab.shard_leg_us_p50", us(w.shard.durs.sorted().pct(0.5)))
	out.set("collab.merge_us_mean", mergeMean)
	out.set("collab.client_self_us", callMean-clientLeg)
	out.set("collab.front_self_us", clientLeg-shardLeg)
	out.set("collab.host_self_us", shardLeg-mergePerCall)
	out.set("collab.unexplained_us", mergePerCall-mergeMean)

	ops := float64(w.ops)
	out.set("collab.client_bytes_per_op", ratio(float64(w.client.bytes), ops))
	out.set("collab.shard_bytes_per_op", ratio(float64(w.shard.bytes), ops))
	out.set("collab.client_writes_per_op", ratio(float64(w.client.writes), ops))
	out.set("collab.shard_writes_per_op", ratio(float64(w.shard.writes), ops))

	per1k := func(kind string) float64 { return ratio(1e3*w.spans[kind], ops/1e3) }
	out.set("task.spawn_ms", per1k("spawn"))
	out.set("task.merge_ms", per1k("merge"))
	out.set("task.sync_ms", per1k("sync"))
	out.set("ot.transform_ms", per1k("transform"))
	out.set("mergeable.apply_ms", per1k("apply"))
	out.set("ot.transform_ops", ratio(float64(w.xformOps), ops/1e3))
	out.notef("per call: call %.1f = client self %.1f + front self %.1f + host self %.1f + merge %.1f (+ %.1f unexplained) us; %d calls, %d client-leg and %d shard-leg exchanges, %d merges",
		callMean, callMean-clientLeg, clientLeg-shardLeg, shardLeg-mergePerCall, mergeMean, mergePerCall-mergeMean,
		len(calls), len(w.client.durs), len(w.shard.durs), w.mergeN)
}

// refusals stores the shares of ops the service refused or had to retry.
func refusals(out *layerSet, attempted int64, windows ...*window) {
	var refused, retried int64
	for _, w := range windows {
		for _, k := range []string{"busy_rate", "busy_merges", "busy_route", "readonly_refused", "shed"} {
			refused += w.server[k]
		}
		for _, k := range []string{"pipe_errors", "route_stale", "route_moved", "replayed", "shard_replayed"} {
			retried += w.server[k]
		}
		for _, k := range []string{"reconnect_retry", "transport_errors", "busy"} {
			retried += w.clients[k]
		}
	}
	out.set("collab.refused_share", ratio(float64(refused), float64(attempted)))
	out.set("collab.retry_share", ratio(float64(retried), float64(attempted)))
}

// sideLeg runs a second, metered spine_batch server in the closed loop
// for dur and returns its window. Its spans are not recorded.
func sideLeg(rc *runCtx, shards int, dir bool, dur time.Duration, out *layerSet) (*window, error) {
	rig, err := startSpine(rc, spineParams{kind: spineBatch, shards: shards, dir: dir, metered: true, warm: 800})
	if err != nil {
		return nil, err
	}
	w := rig.openWindow()
	if err := rig.both(func(cl *spineClient) error { return rig.driveFrames(cl, until(dur)) }); err != nil {
		rig.abandon()
		return nil, err
	}
	w.close()
	out.accountFinish(rig)
	return w, nil
}

// accountFinish verifies a rig and adds its ops and failures to the run.
func (s *layerSet) accountFinish(rig *spineRig) (oplogBytes int64) {
	attempted, _, failed := rig.totals()
	bad, oplogBytes, problems := rig.finish()
	s.attempted += attempted
	s.failed += failed + bad
	s.notes = append(s.notes, problems...)
	return oplogBytes
}

func (b *spineBench) layers(rc *runCtx, out *layerSet) error {
	share := func(f float64) time.Duration { return time.Duration(float64(rc.budget) * f) }
	if err := probes(share(tracedProbes), out); err != nil {
		return err
	}

	// The untraced reference: the same traffic against a server with no
	// wrapper and no tracer, to price the tracing itself.
	refParams := b.rig.p
	refParams.metered, refParams.rec, refParams.openDur = false, nil, share(tracedRef)
	ref, err := startSpine(rc, refParams)
	if err != nil {
		return err
	}
	var refP50 time.Duration
	if b.rig.p.kind == spineBatch {
		st, err := ref.runOpen()
		if err != nil {
			ref.abandon()
			return err
		}
		refP50 = st.lat.sorted().pct(0.5)
	} else {
		if err := ref.both(func(cl *spineClient) error { return ref.driveBlocking(cl, until(share(tracedRef))) }); err != nil {
			ref.abandon()
			return err
		}
		refP50 = ref.callSamples("collab.").sorted().pct(0.5)
	}
	out.accountFinish(ref)

	rig := b.rig
	g := startGauge()
	opsBefore, _, _ := rig.totals()
	var tracedP50 time.Duration
	var hopWindow *window
	var windows []*window
	if b.rig.p.kind == spineBatch {
		open := rig.openWindow()
		st, err := rig.runOpen()
		if err != nil {
			return err
		}
		open.close()
		tracedP50 = st.lat.sorted().pct(0.5)
		late, note := lateNote(st)
		if note != "" {
			out.degraded = append(out.degraded, note)
		}
		out.set("collab.ops_per_frame", ratio(float64(open.server["routed_edits"]), float64(open.server["forwarded_batches"])))
		out.set("collab.queue_wait_us_p50", us(st.wait.sorted().pct(0.5)))
		out.set("collab.backlog_max_ops", float64(st.maxBacklog))
		out.set("collab.gen_late_us_p99", late)
		out.set("collab.over_limit_share", ratio(float64(st.overLimit()), float64(len(st.lat))))
		out.notef("open loop, traced: %d ops, p50 %.1f us, p99 %.1f us, flush p50 %.1f us", len(st.lat), us(tracedP50), us(st.lat.sorted().pct(0.99)), us(open.allCalls().sorted().pct(0.5)))

		hopWindow = rig.openWindow()
		if err := rig.both(func(cl *spineClient) error { return rig.driveFrames(cl, until(share(tracedBatchLoop))) }); err != nil {
			return err
		}
		hopWindow.close()
		windows = []*window{open, hopWindow}
	} else {
		hopWindow = rig.openWindow()
		if err := rig.both(func(cl *spineClient) error { return rig.driveBlocking(cl, until(share(tracedSingle))) }); err != nil {
			return err
		}
		hopWindow.close()
		tracedP50 = hopWindow.allCalls().sorted().pct(0.5)
		windows = []*window{hopWindow}
	}
	opsAfter, _, _ := rig.totals()
	g.finish(out, opsAfter-opsBefore)

	hopWindow.hops(out)
	merges := rig.srv.MergeLatency()
	out.set("collab.merge_us_p50", merges.Quantile(0.5)*1e6)
	out.set("collab.merge_us_p99", merges.Quantile(0.99)*1e6)
	refusals(out, opsAfter-opsBefore, windows...)
	out.set("obs.trace_overhead_share", ratio(us(tracedP50)-us(refP50), us(refP50)))
	_, unattributed := rc.rec.selfTimes(rootLayers)
	out.set("trace.unattributed_share", unattributed)

	b.done = true
	_, mutations, _ := rig.totals()
	oplog := out.accountFinish(rig)
	out.set("collab.oplog_bytes_per_op", ratio(float64(oplog), float64(mutations)))

	if b.rig.p.kind == spineBatch {
		// Two side legs in the same closed loop: one shard instead of two
		// (what sharding buys), and no op log (what durability costs).
		one, err := sideLeg(rc, 1, true, share(tracedBatchSide), out)
		if err != nil {
			return err
		}
		out.set("shard.scaling_x", ratio(hopWindow.rate(), one.rate()))
		bare, err := sideLeg(rc, 2, false, share(tracedBatchSide), out)
		if err != nil {
			return err
		}
		out.set("collab.oplog_delta_us", us(hopWindow.shard.durs.mean())-us(bare.shard.durs.mean()))
		out.notef("closed loop, traced: %.0f ops/s on 2 shards, %.0f ops/s on 1 shard; shard leg mean %.1f us with the op log, %.1f us without",
			hopWindow.rate(), one.rate(), us(hopWindow.shard.durs.mean()), us(bare.shard.durs.mean()))
	}
	if len(hopWindow.shard.durs) == 0 {
		out.degraded = append(out.degraded, "the wrapper handed to ShardNet saw no exchange: shard leg, front self and host self cannot be told apart")
	}
	return nil
}
