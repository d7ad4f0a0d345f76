package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/collab"
	"repro/internal/faultnet"
	"repro/internal/memnet"
	"repro/internal/stats"
)

// The -shard soak probes the sharded document service at scale: the same
// ≥100k-op client workload is run against a single-process MultiServer
// reference and then against 1-, 2- and 4-shard topologies (wire batching
// on), a 4-shard topology with the inter-shard fabric on seeded faultnet
// chaos, and a 4-shard journaled topology whose busiest shard is
// SIGKILLed and resumed mid-traffic. Every run must converge to the
// reference's per-document canonical fingerprints with an exact edit
// count — the cross-shard determinism guarantee under load, faults and
// crash recovery.

// shardSoakClients spreads two writers per document. The fan-out is
// deliberately wide: every OK reply quotes the whole post-merge document,
// so per-op cost grows with document length — concentrating 100k ops on
// a few documents turns the soak quadratic. Spreading them over 256
// documents keeps each under ~5KB at the default op budget while still
// contending every shard's merge loop with hundreds of live sessions.
const (
	shardSoakClients = 512
	shardSoakDocs    = 256
)

func shardSoakDocNames() []string {
	names := make([]string, shardSoakDocs)
	for i := range names {
		names[i] = fmt.Sprintf("doc%03d", i)
	}
	return names
}

func shardSoakInitial() map[string]string {
	m := make(map[string]string, shardSoakDocs)
	for _, name := range shardSoakDocNames() {
		m[name] = ""
	}
	return m
}

// shardDrive runs the sharded workload: `clients` concurrent sessions,
// each USE-ing its document (two clients per document) and prepending
// `edits` unique markers, queued and flushed in wire batches when batch >
// 0. Returns the first client error.
func shardDrive(d collab.Dialer, clients, edits int, opts collab.ClientOptions, batch int) error {
	names := shardSoakDocNames()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := collab.DialWith(d, opts)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			if _, err := c.Use(names[id%len(names)]); err != nil {
				errs <- fmt.Errorf("client %d: use: %w", id, err)
				return
			}
			for j := 0; j < edits; j++ {
				marker := fmt.Sprintf("c%d-e%d;", id, j)
				if batch > 0 {
					c.QueueInsert(0, marker)
					if c.Queued() >= batch || j == edits-1 {
						if err := c.Flush(); err != nil {
							errs <- fmt.Errorf("client %d flush at %d: %w", id, j, err)
							return
						}
					}
				} else if _, err := c.Insert(0, marker); err != nil {
					errs <- fmt.Errorf("client %d edit %d: %w", id, j, err)
					return
				}
			}
			errs <- c.Bye()
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardReference runs the workload on a single-process MultiServer — the
// ground truth: per-document canonical fingerprints and the exact edit
// count every sharded topology must reproduce.
func shardReference(clients, edits int) (map[string]uint64, int64, error) {
	l := memnet.Listen(1024)
	ref := collab.ServeDocs(l, shardSoakInitial())
	err := shardDrive(l, clients, edits, collab.ClientOptions{RequestTimeout: 10 * time.Second}, 8)
	if serr := ref.Shutdown(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return nil, 0, err
	}
	fps := make(map[string]uint64, shardSoakDocs)
	for _, name := range shardSoakDocNames() {
		doc, ok := ref.Document(name)
		if !ok {
			return nil, 0, fmt.Errorf("reference lost document %q", name)
		}
		fps[name] = collab.CanonicalFingerprint(doc)
	}
	return fps, ref.Edits(), nil
}

// shardCheck verifies a completed sharded run against the reference.
func shardCheck(s *collab.ShardedServer, want map[string]uint64, wantEdits int64) error {
	for _, name := range shardSoakDocNames() {
		doc, ok := s.Document(name)
		if !ok {
			return fmt.Errorf("sharded service lost document %q", name)
		}
		if got := collab.CanonicalFingerprint(doc); got != want[name] {
			return fmt.Errorf("document %q fingerprint %016x != reference %016x", name, got, want[name])
		}
	}
	if got := s.Edits(); got != wantEdits {
		return fmt.Errorf("edits = %d, want exactly %d", got, wantEdits)
	}
	return nil
}

// shardReport prints one run's throughput and merge-latency digest and
// folds the service counters into the soak's aggregate.
func shardReport(kind string, s *collab.ShardedServer, shards, ops int, elapsed time.Duration, counters *stats.Counters) {
	h := s.MergeLatency()
	fmt.Printf("  %-7s %d shards: %6d ops in %8v (%7.0f ops/s), merge p50 %6.0fµs p99 %6.0fµs (%d batches)\n",
		kind, shards, ops, elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds(),
		h.Quantile(0.5)*1e6, h.Quantile(0.99)*1e6, h.Count())
	for k, v := range s.Stats().Snapshot() {
		counters.Add("shard."+k, v)
	}
}

// shardCleanProbe is one fault-free topology run.
func shardCleanProbe(shards, clients, edits int, want map[string]uint64, counters *stats.Counters) error {
	l := memnet.Listen(1024)
	s, err := collab.ServeSharded(l, shardSoakInitial(), collab.ShardedOptions{Shards: shards})
	if err != nil {
		return err
	}
	start := time.Now()
	err = shardDrive(l, clients, edits, collab.ClientOptions{RequestTimeout: 10 * time.Second}, 8)
	if serr := s.Shutdown(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	shardReport("clean", s, shards, clients*edits, time.Since(start), counters)
	return shardCheck(s, want, int64(clients*edits))
}

// shardChaosProbe runs the 4-shard topology with the inter-shard fabric
// on seeded faultnet — drops, resets and a bounded burst of self-healing
// partition pulses — while clients ride the router's rid-deduplicated
// retries. At-least-once wire delivery must still converge exactly once.
func shardChaosProbe(seed int64, clients, edits int, want map[string]uint64, counters *stats.Counters) error {
	fnet := faultnet.New(faultnet.Config{Seed: seed, DropProb: 0.03, ResetProb: 0.02})
	l := memnet.Listen(1024)
	s, err := collab.ServeSharded(l, shardSoakInitial(), collab.ShardedOptions{
		Shards:      4,
		PipeTimeout: 50 * time.Millisecond,
		ShardNet:    func(id int) collab.ListenDialer { return fnet.Listen(id, 64) },
	})
	if err != nil {
		return err
	}
	// Bounded pulse burst: each blackholes the next 3 writes on a rotating
	// shard link and self-heals on traffic. Bounding the count guarantees
	// the blackholes drain — pulsing for the whole run would re-arm the
	// swallow budgets faster than timeout-paced traffic can spend them.
	stop := make(chan struct{})
	var pulses sync.WaitGroup
	pulses.Add(1)
	go func() {
		defer pulses.Done()
		for i := 0; i < 40; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				fnet.PartitionFor(i%4, 3)
			}
		}
	}()
	start := time.Now()
	err = shardDrive(l, clients, edits, collab.ClientOptions{
		RequestTimeout: 500 * time.Millisecond,
		Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 5000},
	}, 8)
	close(stop)
	pulses.Wait()
	for id := 0; id < 4; id++ {
		fnet.Heal(id)
	}
	if serr := s.Shutdown(); serr != nil && err == nil {
		err = serr
	}
	for k, v := range fnet.Stats().Snapshot() {
		counters.Add("faultnet."+k, v)
	}
	if err != nil {
		return err
	}
	if injected := fnet.Stats().Get("drop") + fnet.Stats().Get("reset"); injected == 0 {
		return fmt.Errorf("no faults were injected; the chaos run proved nothing")
	}
	shardReport("chaos", s, 4, clients*edits, time.Since(start), counters)
	return shardCheck(s, want, int64(clients*edits))
}

// shardKillProbe runs the journaled 4-shard topology and SIGKILLs the
// shard owning the first document mid-traffic, resuming it from its
// journal after a dead-air window. Acked ops survive (flushed before
// ack); unacked ones retry under their original rid.
func shardKillProbe(clients, edits int, want map[string]uint64, counters *stats.Counters) error {
	dir, err := os.MkdirTemp("", "soak-shard-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := memnet.Listen(1024)
	s, err := collab.ServeSharded(l, shardSoakInitial(), collab.ShardedOptions{
		Shards: 4,
		Dir:    dir,
	})
	if err != nil {
		return err
	}
	victim := s.RouteOf(shardSoakDocNames()[0])

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- shardDrive(l, clients, edits, collab.ClientOptions{
			RequestTimeout: 500 * time.Millisecond,
			Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 20000},
		}, 8)
	}()
	time.Sleep(20 * time.Millisecond) // let traffic build up
	if kerr := s.KillShard(victim); kerr != nil {
		return fmt.Errorf("kill shard %d: %w", victim, kerr)
	}
	time.Sleep(10 * time.Millisecond) // dead air: clients shed and retry
	if rerr := s.ResumeShard(victim); rerr != nil {
		return fmt.Errorf("resume shard %d: %w", victim, rerr)
	}
	err = <-done
	if serr := s.Shutdown(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if s.Stats().Get("shard_kills") != 1 || s.Stats().Get("shard_resumes") != 1 {
		return fmt.Errorf("kill/resume counters = %d/%d, want 1/1",
			s.Stats().Get("shard_kills"), s.Stats().Get("shard_resumes"))
	}
	shardReport("kill", s, 4, clients*edits, time.Since(start), counters)
	return shardCheck(s, want, int64(clients*edits))
}

// shardSoak drives full passes — reference, 1/2/4-shard clean sweep,
// 4-shard chaos, 4-shard kill/resume — until the deadline, always
// completing at least one pass. ops is the per-run client-op budget
// (default 100k, trimmed by CI smoke).
func shardSoak(duration time.Duration, baseSeed int64, ops int, reg *repro.MetricsRegistry) {
	clients := shardSoakClients
	edits := ops / clients
	if edits < 1 {
		edits = 1
	}
	counters := stats.NewCounters()
	if reg != nil {
		reg.AddCounters("shard", counters)
	}
	fmt.Printf("shard soak: %d clients × %d edits = %d ops per run over %d docs\n",
		clients, edits, clients*edits, shardSoakDocs)

	want, refEdits, err := shardReference(clients, edits)
	if err != nil {
		fmt.Printf("SHARD REFERENCE FAILED (single-process run, nothing injected): %v\n", err)
		os.Exit(1)
	}
	if refEdits != int64(clients*edits) {
		fmt.Printf("SHARD REFERENCE FAILED: reference edits = %d, want %d\n", refEdits, clients*edits)
		os.Exit(1)
	}

	deadline := time.Now().Add(duration)
	passes := 0
	for passes == 0 || time.Now().Before(deadline) {
		seed := baseSeed + int64(passes)
		for _, shards := range []int{1, 2, 4} {
			if err := shardCleanProbe(shards, clients, edits, want, counters); err != nil {
				fmt.Printf("SHARD CONVERGENCE VIOLATION: pass %d, %d shards clean: %v\n", passes, shards, err)
				os.Exit(1)
			}
		}
		if err := shardChaosProbe(seed, clients, edits, want, counters); err != nil {
			fmt.Printf("SHARD CHAOS VIOLATION: pass %d, seed %d: %v\n", passes, seed, err)
			os.Exit(1)
		}
		if err := shardKillProbe(clients, edits, want, counters); err != nil {
			fmt.Printf("SHARD KILL/RESUME VIOLATION: pass %d: %v\n", passes, err)
			os.Exit(1)
		}
		passes++
	}
	fmt.Printf("clean: %d passes, %d ops each over 1/2/4 shards + chaos + kill/resume, all converged (%d frames, %d forwards, %d replays)\n",
		passes, clients*edits,
		counters.Get("shard.shard_frames"), counters.Get("shard.forwarded"), counters.Get("shard.shard_replayed"))
	fmt.Printf("counters: %s\n", counters)
}

// The -mem soak's sharded leg: a fixed set of sessions, one per document,
// drives pass after pass of mutations through a journaled 2-shard service.
// Every step prepends a marker and deletes the one that falls out of an
// 8-marker window, so the documents stay 64 runes long and whatever grows
// from pass to pass is state the shard layer keeps per op. After each pass
// (at quiescence: every session ends its pass with a read, which is a Sync)
// the leg samples the service's ShardState and the post-GC heap; the last
// sample must not exceed the second by more than slack, and the final
// documents and edit count must equal a single-process MultiServer run of
// the same passes.
const (
	memShardSessions = 32
	memShardPassOps  = 1024 // mutations per session per pass
	memShardMinPass  = 4
)

func memShardDoc(id int) string { return fmt.Sprintf("mem%02d", id) }

func memShardInitial() map[string]string {
	m := make(map[string]string, memShardSessions)
	for id := 0; id < memShardSessions; id++ {
		m[memShardDoc(id)] = strings.Repeat("initial;", 8)
	}
	return m
}

// memShardDial opens the leg's fixed sessions, one per document.
func memShardDial(d collab.Dialer) ([]*collab.Client, error) {
	clients := make([]*collab.Client, memShardSessions)
	for id := range clients {
		c, err := collab.DialWith(d, collab.ClientOptions{RequestTimeout: 10 * time.Second})
		if err != nil {
			return nil, err
		}
		if _, err := c.Use(memShardDoc(id)); err != nil {
			return nil, err
		}
		clients[id] = c
	}
	return clients, nil
}

// memShardPass runs pass number pass on every session concurrently.
func memShardPass(clients []*collab.Client, pass int) error {
	errs := make(chan error, len(clients))
	for id, c := range clients {
		go func(id int, c *collab.Client) {
			for j := 0; j < memShardPassOps; j += 2 {
				c.QueueInsert(0, fmt.Sprintf("%02d%05d;", id, (pass*memShardPassOps+j)/2%100000))
				c.QueueDelete(64, 8)
				if c.Queued() >= 8 {
					if err := c.Flush(); err != nil {
						errs <- fmt.Errorf("session %d, pass %d: %w", id, pass, err)
						return
					}
				}
			}
			errs <- c.Flush()
		}(id, c)
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	// Both ends quiet: one read per session moves every pipe's pin up to
	// the present, so what the logs still retain is retained for good.
	for _, c := range clients {
		if _, err := c.Get(); err != nil {
			return err
		}
	}
	return nil
}

// memShardSample is one pass's read-out.
type memShardSample struct {
	state collab.ShardState
	heap  uint64
}

func memShardFail(format string, args ...any) {
	fmt.Printf("MEM SHARD VIOLATION: "+format+"\n", args...)
	os.Exit(1)
}

// memShardLeg runs passes for about budget (at least memShardMinPass) and
// verifies the bounds and the reference. It prints its own report line.
func memShardLeg(budget time.Duration) {
	dir, err := os.MkdirTemp("", "soak-mem-shard-")
	if err != nil {
		memShardFail("mkdir: %v", err)
	}
	defer os.RemoveAll(dir)
	l := memnet.Listen(64)
	s, err := collab.ServeSharded(l, memShardInitial(), collab.ShardedOptions{Shards: 2, Dir: dir})
	if err != nil {
		memShardFail("serve: %v", err)
	}
	clients, err := memShardDial(l)
	if err != nil {
		memShardFail("dial: %v", err)
	}
	var samples []memShardSample
	deadline := time.Now().Add(budget)
	for len(samples) < memShardMinPass || time.Now().Before(deadline) {
		if err := memShardPass(clients, len(samples)); err != nil {
			memShardFail("%v", err)
		}
		st := s.ShardState()
		samples = append(samples, memShardSample{state: st, heap: postGCHeap()})
		if st.InFlight != 0 {
			memShardFail("pass %d left %d claims in flight at quiescence", len(samples), st.InFlight)
		}
	}
	for _, c := range clients {
		if err := c.Bye(); err != nil {
			memShardFail("bye: %v", err)
		}
	}
	if err := s.Shutdown(); err != nil {
		memShardFail("shutdown: %v", err)
	}
	passes := len(samples)
	base, last := samples[1], samples[passes-1]
	if last.state.Watermarks != base.state.Watermarks || base.state.Watermarks != memShardSessions {
		memShardFail("watermark entries went %d → %d over passes 2..%d, want %d throughout (one per session)",
			base.state.Watermarks, last.state.Watermarks, passes, memShardSessions)
	}
	if last.state.RetainedOps > base.state.RetainedOps+64 {
		memShardFail("retained root-log ops grew %d → %d over passes 2..%d", base.state.RetainedOps, last.state.RetainedOps, passes)
	}
	if last.heap > base.heap+base.heap/4+(4<<20) {
		memShardFail("post-GC heap grew %d → %d bytes over passes 2..%d", base.heap, last.heap, passes)
	}

	// The same passes on the single-process server are the authority for
	// the documents and the edit count.
	rl := memnet.Listen(64)
	ref := collab.ServeDocs(rl, memShardInitial())
	refClients, err := memShardDial(rl)
	if err != nil {
		memShardFail("reference dial: %v", err)
	}
	for pass := 0; pass < passes; pass++ {
		if err := memShardPass(refClients, pass); err != nil {
			memShardFail("reference: %v", err)
		}
	}
	for _, c := range refClients {
		if err := c.Bye(); err != nil {
			memShardFail("reference bye: %v", err)
		}
	}
	if err := ref.Shutdown(); err != nil {
		memShardFail("reference shutdown: %v", err)
	}
	ops := int64(passes) * memShardSessions * memShardPassOps
	if s.Edits() != ops || ref.Edits() != ops {
		memShardFail("edits: sharded %d, reference %d, want exactly %d", s.Edits(), ref.Edits(), ops)
	}
	for id := 0; id < memShardSessions; id++ {
		got, _ := s.Document(memShardDoc(id))
		want, _ := ref.Document(memShardDoc(id))
		if got != want || len(got) != 64 {
			memShardFail("document %s: sharded %q, reference %q", memShardDoc(id), got, want)
		}
	}
	fmt.Printf("sharded: %d passes × %d ops = %d ops on 2 journaled shards, %d sessions; pass 2 → pass %d: watermark entries %d → %d, in-flight claims 0 → 0, retained root-log ops %d → %d, post-GC heap %.1f → %.1f MB; documents and edits equal the single-process reference\n",
		passes, memShardSessions*memShardPassOps, ops, memShardSessions, passes,
		base.state.Watermarks, last.state.Watermarks, base.state.RetainedOps, last.state.RetainedOps,
		float64(base.heap)/(1<<20), float64(last.heap)/(1<<20))
}
