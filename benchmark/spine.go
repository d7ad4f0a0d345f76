package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/collab"
	"repro/internal/memnet"
)

// The spine journey: one client edit through client queue → wire →
// session front → router → shard pipe → merge loop → OT → op log → ack.
//
// Load sizing: one process, two load-generator goroutines, each with its
// own client connection (this box has two cores). The transport is
// in-process memnet, so every latency here is processor time only.
const (
	numClients = 2

	// spine_batch: each client owns one small document on its own shard.
	spineDocs    = 32
	docMarkers   = 16
	docLo, docHi = 8, 24
	// openRate is the open loop's total arrival rate. It is fixed: a
	// slower system shows as queueing and a higher lat_p50_us/lat_tail_us,
	// not as less load.
	openRate = 10000.0
	frameOps = 8 // ops per frame in the closed loop; the client's batch cap
	// latencyLimit is the open loop's service limit, reported as
	// collab.over_limit_share.
	latencyLimit = 5 * time.Millisecond

	// spine_single: both clients edit one 512-marker (4 KiB) document.
	singleMarkers = 512
	singleSlack   = 16 // inserts are forced below 512-16 markers, deletes above 512+16
)

type spineKind int

const (
	spineBatch spineKind = iota
	spineSingle
)

func docName(i int) string { return fmt.Sprintf("doc%02d", i) }

// spineParams describes one server and its two clients.
type spineParams struct {
	kind    spineKind
	shards  int
	dir     bool          // journal every shard's ops under the work directory
	metered bool          // wrap both transports and switch the obs tracer on
	rec     *recorder     // spans go here (nil: metered legs still count and time)
	openDur time.Duration // spine_batch: length of the open-loop schedule built at set-up
	warm    int           // warm-up ops per client
}

// spineClient is one load generator: a client connection, the generator
// of its edits and the record of what it was told.
type spineClient struct {
	idx   int
	c     *collab.Client
	doc   string
	shard int

	gen   *docGen         // spine_batch: edits and their sequential replay
	sched []editOp        // spine_batch: the open loop's ops, built at set-up
	due   []time.Duration // ... and when each is due
	mix   *mixGen         // spine_single
	view  string          // spine_single: the document as last replied

	inserted, deleted []string // spine_single: markers this client put in / took out
	staleViews        int64    // deletes whose reply still held the marker: the op landed on a state the client had not seen

	calls     map[string]samples // call durations by span name
	rate      *windowCounter     // closed loops count acked ops per window here when set
	ops       int64              // ops acked
	mutations int64              // of which inserts and deletes
	failed    int64              // ops refused, errored or wrongly answered

	call, legID atomic.Uint64 // the open call span and its current client-leg exchange
}

// spineRig is a running server with its clients.
type spineRig struct {
	p       spineParams
	srv     *collab.ShardedServer
	dirPath string
	initial map[string]string
	clients [numClients]*spineClient
	tracer  *repro.Tracer
	cliLeg  *leg
	shdLeg  *leg
}

func startSpine(rc *runCtx, p spineParams) (rig *spineRig, err error) {
	rig = &spineRig{p: p, initial: map[string]string{}}
	defer func() {
		if err != nil {
			rig.abandon()
		}
	}()
	docs, markers := spineDocs, docMarkers
	if p.kind == spineSingle {
		docs, markers = 1, singleMarkers
	}
	for i := 0; i < docs; i++ {
		rig.initial[docName(i)] = strings.Join(initialDoc(i, markers), "")
	}

	opts := collab.ShardedOptions{Shards: p.shards}
	if p.dir {
		if rig.dirPath, err = os.MkdirTemp(rc.workdir, "oplog-"); err != nil {
			return rig, err
		}
		opts.Dir = rig.dirPath
	}
	base := memnet.Listen(16)
	var public collab.Listener = base
	var pub *meteredLink
	if p.metered {
		rig.tracer = repro.NewTracer()
		rig.cliLeg, rig.shdLeg = newLeg("client_leg", p.rec), newLeg("shard_leg", p.rec)
		pub = &meteredLink{link: base, leg: rig.cliLeg}
		public = pub
		opts.Front.Tracer = rig.tracer
		opts.ShardNet = func(id int) collab.ListenDialer {
			return &meteredLink{link: memnet.Listen(64), leg: rig.shdLeg, cause: rig.shardCause(id)}
		}
	}
	if rig.srv, err = collab.ServeSharded(public, rig.initial, opts); err != nil {
		return rig, err
	}

	// Place the clients before anyone dials: in spine_batch client k takes
	// the first document the ring put on shard k, so the two clients load
	// two shards (or, with one shard, two documents of it).
	ids := rig.srv.ShardIDs()
	docOf := [numClients]int{}
	for k := range rig.clients {
		cl := &spineClient{idx: k, calls: map[string]samples{}}
		rig.clients[k] = cl
		if p.kind == spineBatch {
			docOf[k] = -1
			for i := 0; i < docs && docOf[k] < 0; i++ {
				if (k == 0 || docOf[0] != i) && rig.srv.RouteOf(docName(i)) == ids[k%len(ids)] {
					docOf[k] = i
				}
			}
			if docOf[k] < 0 {
				return rig, fmt.Errorf("no document on shard %d", ids[k%len(ids)])
			}
		}
		cl.doc = docName(docOf[k])
		cl.shard = rig.srv.RouteOf(cl.doc)
	}
	for k, cl := range rig.clients {
		var d collab.Dialer = base
		if p.metered {
			d = dialer{m: pub, cause: func(c *legConn) (uint64, uint64) {
				cl.legID.Store(c.id)
				call := cl.call.Load()
				return call, call
			}}
		}
		if cl.c, err = collab.DialWith(d, collab.ClientOptions{}); err != nil {
			return rig, err
		}
		got, err := cl.c.Use(cl.doc)
		if err != nil {
			return rig, err
		}
		if got != rig.initial[cl.doc] {
			return rig, fmt.Errorf("USE %s returned %d bytes, want the initial %d", cl.doc, len(got), len(rig.initial[cl.doc]))
		}
		class := byte('a' + k)
		stream := fmt.Sprintf("spine/%d", k)
		if p.kind == spineSingle {
			cl.mix, cl.view = &mixGen{r: newRNG(rc.seed, stream), class: class}, got
		} else {
			cl.gen = &docGen{r: newRNG(rc.seed, stream), class: class, doc: initialDoc(docOf[k], docMarkers), lo: docLo, hi: docHi}
		}
	}

	// Warm-up: the same calls the measurement makes, both clients at once.
	if err := rig.both(func(cl *spineClient) error {
		if p.kind == spineSingle {
			return rig.driveBlocking(cl, func(n int64) bool { return n < int64(p.warm) })
		}
		return rig.driveFrames(cl, func(n int64) bool { return n < int64(p.warm) })
	}); err != nil {
		return rig, err
	}
	// The open loop's schedule is an input, so it is built here. It is
	// drawn after the warm-up ops, which come off the same generator.
	if p.kind == spineBatch && p.openDur > 0 {
		for k, cl := range rig.clients {
			cl.due = arrivals(newRNG(rc.seed, fmt.Sprintf("spine/arrivals/%d", k)), openRate/numClients, p.openDur)
			cl.sched = fill(len(cl.due), cl.gen.nextOp)
		}
	}
	for _, cl := range rig.clients {
		if cl.failed > 0 {
			return rig, fmt.Errorf("client %d: %d warm-up ops failed", cl.idx, cl.failed)
		}
		cl.calls = map[string]samples{}
	}
	return rig, nil
}

// shardCause names the client leg a shard-leg exchange belongs to: the
// one client with a call open whose document lives on that shard. When
// several have, the connection's owner decides: a pipe that every
// unambiguous exchange so far showed in the hands of one client is taken
// to carry that client's request. Otherwise the span stays unattributed.
func (rig *spineRig) shardCause(shard int) cause {
	return func(c *legConn) (uint64, uint64) {
		var caller *spineClient
		open := 0
		for _, cl := range rig.clients {
			if cl != nil && cl.shard == shard && cl.call.Load() != 0 {
				caller = cl
				open++
			}
		}
		switch {
		case open == 1:
			if c.owner == ownerUnknown {
				c.owner = caller.idx
			} else if c.owner != caller.idx {
				c.owner = ownerShared
			}
		case open > 1 && c.owner >= 0 && rig.clients[c.owner].call.Load() != 0:
			caller = rig.clients[c.owner]
		default:
			return 0, 0
		}
		return caller.legID.Load(), caller.call.Load()
	}
}

// both runs fn for every client at once and joins the errors.
func (rig *spineRig) both(fn func(*spineClient) error) error {
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for k, cl := range rig.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(cl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// do times one client call and records it as a root span.
func (rig *spineRig) do(cl *spineClient, name string, fn func() error) error {
	start := time.Now()
	id := rig.p.rec.id()
	cl.call.Store(id)
	err := fn()
	cl.call.Store(0)
	end := time.Now()
	rig.p.rec.add(id, 0, name, id, start, end)
	cl.calls[name] = append(cl.calls[name], end.Sub(start))
	return err
}

func (cl *spineClient) queue(op editOp) {
	if op.ins {
		cl.c.QueueInsert(op.pos, op.text)
	} else {
		cl.c.QueueDelete(op.pos, markerLen)
	}
}

// flush ships n queued ops and accounts for them.
func (rig *spineRig) flush(cl *spineClient, n int) error {
	err := rig.do(cl, "collab.Flush", cl.c.Flush)
	if err != nil {
		cl.failed += int64(n)
		return fmt.Errorf("client %d: flush of %d ops: %w", cl.idx, n, err)
	}
	cl.ops += int64(n)
	cl.mutations += int64(n)
	if cl.rate != nil {
		cl.rate.add(n)
	}
	return nil
}

// driveFrames is the closed loop of spine_batch: frames of frameOps
// generated edits, the next frame only after the last is acked.
func (rig *spineRig) driveFrames(cl *spineClient, more func(done int64) bool) error {
	for done := int64(0); more(done); done += frameOps {
		for i := 0; i < frameOps; i++ {
			cl.queue(cl.gen.nextOp())
		}
		if err := rig.flush(cl, frameOps); err != nil {
			return err
		}
	}
	return nil
}

// clock is the time source of the open loop, replaced in tests.
type clock interface {
	now() time.Duration
	sleep(time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

// sleep waits out the last stretch by yielding instead of sleeping: a Go
// timer on an otherwise idle processor fires up to a millisecond late,
// which an open loop with arrivals 200 us apart would charge to the
// system as latency.
func (c wallClock) sleep(d time.Duration) {
	const spin = 2 * time.Millisecond
	deadline := time.Now().Add(d)
	if d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// openStats is what the open loop saw.
type openStats struct {
	lat        samples // per op: due → acked. This is lat_p50_us / lat_tail_us.
	wait       samples // per op: due → the flush that carried it started
	late       samples // per wake-up: how long after the due time the generator ran
	maxBacklog int     // most ops found due at once
}

// overLimit counts the ops that missed the service limit.
func (st openStats) overLimit() int {
	over := 0
	for _, d := range st.lat {
		if d > latencyLimit {
			over++
		}
	}
	return over
}

// driveOpen is the open loop: ops fall due on a fixed schedule whatever
// the system does. Whenever the flusher is free it queues every op now
// due and flushes; when none is due it sleeps until the next. Latency
// counts from the due time, not from the send, so the time an op waits
// behind a slow flush is charged to it (no coordinated omission).
func driveOpen(due []time.Duration, clk clock, queue func(i int), flush func(n int) error) (openStats, error) {
	st := openStats{lat: make(samples, 0, len(due)), wait: make(samples, 0, len(due))}
	for i := 0; i < len(due); {
		now := clk.now()
		if due[i] > now {
			clk.sleep(due[i] - now)
			now = clk.now()
			st.late = append(st.late, now-due[i])
		}
		j := i
		for j < len(due) && due[j] <= now {
			queue(j)
			j++
		}
		st.maxBacklog = max(st.maxBacklog, j-i)
		sent := clk.now()
		if err := flush(j - i); err != nil {
			return st, err
		}
		acked := clk.now()
		for ; i < j; i++ {
			st.lat = append(st.lat, acked-due[i])
			st.wait = append(st.wait, sent-due[i])
		}
	}
	return st, nil
}

// driveBlocking is the closed loop of spine_single: one blocking Insert,
// Delete or Get at a time, placed by the document the client last saw.
func (rig *spineRig) driveBlocking(cl *spineClient, more func(done int64) bool) error {
	for done := int64(0); more(done); done++ {
		op := cl.mix.nextOp()
		n := len(cl.view) / markerLen
		kind := op.kind
		if kind != 'g' {
			if n <= singleMarkers-singleSlack {
				kind = 'i'
			} else if n >= singleMarkers+singleSlack {
				kind = 'd'
			}
		}
		var doc string
		var err error
		switch kind {
		case 'g':
			err = rig.do(cl, "collab.Get", func() (e error) { doc, e = cl.c.Get(); return })
		case 'i':
			pos := int(op.frac*float64(n+1)) * markerLen
			err = rig.do(cl, "collab.Insert", func() (e error) { doc, e = cl.c.Insert(pos, op.text); return })
			if err == nil {
				cl.inserted = append(cl.inserted, op.text)
				if !strings.Contains(doc, op.text) {
					cl.failed++ // acked, but not in the document the ack carries
				}
			}
		case 'd':
			pos := int(op.frac*float64(n)) * markerLen
			victim := cl.view[pos : pos+markerLen]
			err = rig.do(cl, "collab.Delete", func() (e error) { doc, e = cl.c.Delete(pos, markerLen); return })
			if err == nil {
				cl.deleted = append(cl.deleted, victim)
				if strings.Contains(doc, victim) {
					cl.staleViews++
				}
			}
		}
		if err != nil {
			cl.failed++
			return fmt.Errorf("client %d: %c: %w", cl.idx, kind, err)
		}
		cl.ops++
		if kind != 'g' {
			cl.mutations++
		}
		if cl.rate != nil {
			cl.rate.add(1)
		}
		if len(doc) == 0 || len(doc)%markerLen != 0 || doc[len(doc)-1] != ';' {
			cl.failed++
		}
		cl.view = doc
	}
	return nil
}

// until returns a drive condition that holds for d from now.
func until(d time.Duration) func(int64) bool {
	start := time.Now()
	return func(int64) bool { return time.Since(start) < d }
}

// totals sums the clients' counts.
func (rig *spineRig) totals() (ops, mutations, failed int64) {
	for _, cl := range rig.clients {
		ops, mutations, failed = ops+cl.ops, mutations+cl.mutations, failed+cl.failed
	}
	return
}

// callSamples returns every call duration whose span name starts with
// prefix, over both clients.
func (rig *spineRig) callSamples(prefix string) samples {
	var out samples
	for _, cl := range rig.clients {
		for name, s := range cl.calls {
			if strings.HasPrefix(name, prefix) {
				out = append(out, s...)
			}
		}
	}
	return out
}

// finish ends the sessions, shuts the server down and verifies what it
// holds against what the clients were acked. It returns the number of
// failed checks (each counts as one failed op) and what went wrong.
func (rig *spineRig) finish() (failed int64, oplogBytes int64, problems []string) {
	bad := func(format string, args ...any) {
		failed++
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, cl := range rig.clients {
		if err := cl.c.Bye(); err != nil {
			bad("client %d: BYE: %v", cl.idx, err)
		}
	}
	if err := rig.srv.Shutdown(); err != nil {
		bad("shutdown: %v", err)
	}
	_, mutations, _ := rig.totals()
	exact := true
	if rig.p.kind == spineSingle {
		// Both clients wrote one document. It must be whole markers, none
		// twice, none from nowhere. Which markers must be left is known
		// exactly as long as every op landed on the document its client
		// had last seen, which the replies show.
		want := map[string]bool{}
		for _, m := range initialDoc(0, singleMarkers) {
			want[m] = true
		}
		var stale int64
		for _, cl := range rig.clients {
			stale += cl.staleViews
			for _, m := range cl.inserted {
				want[m] = true
			}
		}
		if exact = stale == 0; exact {
			for _, cl := range rig.clients {
				for _, m := range cl.deleted {
					delete(want, m)
				}
			}
		} else {
			problems = append(problems, fmt.Sprintf("%d deletes landed on a state newer than their client's view: lost-marker and edit-count checks skipped", stale))
		}
		final, _ := rig.srv.Document(docName(0))
		if err := checkMarkers(final, want, exact); err != nil {
			bad("%s: %v", docName(0), err)
		}
	} else {
		// Single-writer documents must equal the sequential replay of
		// their writer's ops; every other document must be untouched.
		want := map[string]string{}
		for _, cl := range rig.clients {
			want[cl.doc] = cl.gen.content()
		}
		for _, name := range rig.srv.Names() {
			final, ok := rig.srv.Document(name)
			expect, written := want[name]
			if !written {
				expect = rig.initial[name]
			}
			if !ok || final != expect {
				bad("%s: final document differs from the sequential replay (%d bytes, want %d)", name, len(final), len(expect))
			}
			if _, err := splitMarkers(final); err != nil {
				bad("%s: %v", name, err)
			}
		}
	}
	if edits := rig.srv.Edits(); exact && edits != mutations {
		bad("server applied %d edits, clients were acked %d", edits, mutations)
	}
	if rig.dirPath != "" {
		filepath.WalkDir(rig.dirPath, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, ierr := d.Info(); ierr == nil {
					oplogBytes += info.Size()
				}
			}
			return nil
		})
		if err := os.RemoveAll(rig.dirPath); err != nil {
			bad("remove op logs: %v", err)
		}
	}
	return failed, oplogBytes, problems
}

// abandon tears a rig down without verifying it (failed set-up, or a
// set-up repeated only to time it).
func (rig *spineRig) abandon() {
	for _, cl := range rig.clients {
		if cl != nil && cl.c != nil {
			cl.c.Close()
		}
	}
	if rig.srv != nil {
		rig.srv.Shutdown()
	}
	if rig.dirPath != "" {
		os.RemoveAll(rig.dirPath)
	}
}

// spineBench is the instance the harness holds: the main rig plus what
// the traced run needs to start its side legs.
type spineBench struct {
	rig  *spineRig
	done bool // the rig was finished (verified) by measure or layers
}

// Budget shares. Untraced spine_batch splits its time between the open
// and the closed loop; the traced runs also pay for probes, an untraced
// reference leg and, on spine_batch, a one-shard and an unjournaled leg.
const (
	batchOpenShare = 0.5

	tracedProbes    = 0.10
	tracedBatchOpen = 0.25
	tracedBatchLoop = 0.20
	tracedBatchSide = 0.12 // each of: one shard, no op log
	tracedRef       = 0.15
	tracedSingle    = 0.60
)

func setupSpine(kind spineKind) func(*runCtx) (instance, error) {
	return func(rc *runCtx) (instance, error) {
		p := spineParams{kind: kind, shards: 1, dir: true, metered: rc.traced(), rec: rc.rec, warm: 3000}
		if kind == spineBatch {
			p.shards, p.warm = 2, 16000
			p.openDur = time.Duration(float64(rc.budget) * batchOpenShare)
			if rc.traced() {
				p.openDur = time.Duration(float64(rc.budget) * tracedBatchOpen)
			}
		}
		rig, err := startSpine(rc, p)
		if err != nil {
			return nil, err
		}
		return &spineBench{rig: rig}, nil
	}
}

func (b *spineBench) close() {
	if !b.done {
		b.rig.abandon()
	}
}

// closedLoop runs drive on every client with window counters armed and
// memory statistics read before and after; it returns the ops acked.
func (rig *spineRig) closedLoop(span time.Duration, m0, m1 *runtime.MemStats, drive func(*spineClient) error) (int64, error) {
	before, _, _ := rig.totals()
	runtime.ReadMemStats(m0)
	start := time.Now()
	for _, cl := range rig.clients {
		cl.rate = newWindowCounter(start, span)
	}
	err := rig.both(drive)
	runtime.ReadMemStats(m1)
	after, _, _ := rig.totals()
	return after - before, err
}

// rates returns the clients' combined throughput per window of the last
// closed loop.
func (rig *spineRig) rates(span time.Duration) []float64 {
	return windowRates(span, rig.clients[0].rate, rig.clients[1].rate)
}

// runOpen drives every client's open-loop schedule and merges what they
// saw.
func (rig *spineRig) runOpen() (openStats, error) {
	var mu sync.Mutex
	var all openStats
	start := time.Now()
	err := rig.both(func(cl *spineClient) error {
		st, err := driveOpen(cl.due, wallClock{start},
			func(i int) { cl.queue(cl.sched[i]) },
			func(n int) error { return rig.flush(cl, n) })
		mu.Lock()
		defer mu.Unlock()
		all.lat, all.wait, all.late = append(all.lat, st.lat...), append(all.wait, st.wait...), append(all.late, st.late...)
		all.maxBacklog = max(all.maxBacklog, st.maxBacklog)
		return err
	})
	return all, err
}

// lateNote flags a generator that could not keep its own schedule.
func lateNote(st openStats) (float64, string) {
	p99 := st.late.sorted().pct(0.99)
	if p99 > latencyLimit {
		return us(p99), fmt.Sprintf("the open-loop generator ran %.0f us late at p99, past the %v service limit: the load was not the schedule", us(p99), latencyLimit)
	}
	return us(p99), ""
}

func (b *spineBench) measure(rc *runCtx) (*measurement, error) {
	rig, m := b.rig, &measurement{}
	var m0, m1 runtime.MemStats
	if b.rig.p.kind == spineBatch {
		st, err := rig.runOpen()
		if err != nil {
			return nil, err
		}
		m.lat = st.lat
		if _, note := lateNote(st); note != "" {
			m.degraded = append(m.degraded, note)
		}
		m.notes = append(m.notes, fmt.Sprintf("open loop at %.0f ops/s: %d ops, %d over the %v limit, at most %d due at once; closed loop in frames of %d follows",
			openRate, len(st.lat), st.overLimit(), latencyLimit, st.maxBacklog, frameOps))

		loop := rc.budget - time.Duration(float64(rc.budget)*batchOpenShare)
		if m.allocOps, err = rig.closedLoop(loop, &m0, &m1, func(cl *spineClient) error { return rig.driveFrames(cl, until(loop)) }); err != nil {
			return nil, err
		}
		m.rates = rig.rates(loop)
	} else {
		var err error
		if m.allocOps, err = rig.closedLoop(rc.budget, &m0, &m1, func(cl *spineClient) error { return rig.driveBlocking(cl, until(rc.budget)) }); err != nil {
			return nil, err
		}
		m.rates = rig.rates(rc.budget)
		m.lat = rig.callSamples("collab.")
	}
	m.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	b.done = true
	m.attempted, _, m.failed = rig.totals()
	failed, _, problems := rig.finish()
	m.failed += failed
	m.notes = append(m.notes, problems...)
	return m, nil
}
