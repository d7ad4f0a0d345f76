package collab

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faultnet"
	"repro/internal/memnet"
)

// shardedDocs is the document set the battery spreads over shards. Five
// names over up to four shards guarantees at least one shard holds more
// than one document and (with this naming) no shard is empty-handed for
// the whole sweep.
var shardedDocs = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

func initialOf(docs []string) map[string]string {
	m := make(map[string]string, len(docs))
	for _, d := range docs {
		m[d] = ""
	}
	return m
}

func docFor(client int) string { return shardedDocs[client%len(shardedDocs)] }

// shardedWorkload runs `clients` concurrent sessions against d, each
// USE-ing its document and writing `edits` unique markers. batch > 0
// queues ops and flushes every `batch` of them instead of one round trip
// per op.
func shardedWorkload(t *testing.T, d Dialer, clients, edits int, opts ClientOptions, batch int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialWith(d, opts)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			if _, err := c.Use(docFor(id)); err != nil {
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
			if err := c.Bye(); err != nil {
				errs <- fmt.Errorf("client %d: bye: %w", id, err)
				return
			}
			errs <- nil
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkShardedExactlyOnce asserts each client's markers appear exactly
// once in its document.
func checkShardedExactlyOnce(t *testing.T, finals map[string]string, clients, edits int) {
	t.Helper()
	for id := 0; id < clients; id++ {
		doc := finals[docFor(id)]
		for j := 0; j < edits; j++ {
			marker := fmt.Sprintf("c%d-e%d;", id, j)
			if n := strings.Count(doc, marker); n != 1 {
				t.Errorf("marker %q appears %d times in %q, want exactly 1", marker, n, docFor(id))
			}
		}
	}
}

// referenceFingerprints is the workload's closed-form outcome: each
// document's canonical fingerprint is that of its clients' markers, every
// one written once — the ground truth every topology must reproduce
// bit-identically.
func referenceFingerprints(clients, edits int) map[string]uint64 {
	byDoc := make(map[string][]int, len(shardedDocs))
	for id := 0; id < clients; id++ {
		byDoc[docFor(id)] = append(byDoc[docFor(id)], id)
	}
	fps := make(map[string]uint64, len(shardedDocs))
	for _, name := range shardedDocs {
		fps[name] = markerFingerprint(byDoc[name], edits)
	}
	return fps
}

// checkFingerprints compares a sharded run's final documents against the
// reference fingerprints.
func checkFingerprints(t *testing.T, s *ShardedServer, want map[string]uint64) map[string]string {
	t.Helper()
	finals := make(map[string]string, len(shardedDocs))
	for _, name := range shardedDocs {
		doc, ok := s.Document(name)
		if !ok {
			t.Fatalf("sharded service lost document %q", name)
		}
		finals[name] = doc
		if got := CanonicalFingerprint(doc); got != want[name] {
			t.Errorf("document %q fingerprint %016x != reference %016x", name, got, want[name])
		}
	}
	return finals
}

// TestShardedConvergesAcrossShardCounts is the cross-shard determinism
// battery: the same workload over 1, 2 and 4 shards, swept across
// GOMAXPROCS, client batching (batch frames or one line per op) and
// router batching (nobatch: the front applies a frame op by op), must
// converge to documents bit-identical (canonical fingerprint) to the
// closed-form reference, with an exact edit count.
func TestShardedConvergesAcrossShardCounts(t *testing.T) {
	const clients, edits = 6, 8
	want := referenceFingerprints(clients, edits)
	for _, procs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			for _, batch := range []int{0, 4} {
				t.Run(fmt.Sprintf("procs=%d/shards=%d/batch=%d", procs, shards, batch), func(t *testing.T) {
					for _, noBatch := range []bool{false, true} {
						t.Run(fmt.Sprintf("nobatch=%v", noBatch), func(t *testing.T) {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							l := memnet.Listen(64)
							s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{Shards: shards, NoBatch: noBatch})
							if err != nil {
								t.Fatal(err)
							}
							shardedWorkload(t, l, clients, edits, testClientOpts(), batch)
							if err := s.Shutdown(); err != nil {
								t.Fatalf("shutdown: %v", err)
							}
							checkShardedExactlyOnce(t, checkFingerprints(t, s, want), clients, edits)
							if got, wantEdits := s.Edits(), int64(clients*edits); got != wantEdits {
								t.Errorf("edits = %d, want exactly %d", got, wantEdits)
							}
						})
					}
				})
			}
		}
	}
}

// TestShardedChaosConvergence runs the battery's 4-shard topology with
// the inter-node fabric on faultnet — seeded drops, resets and partition
// pulses on the shard links — and demands the same fingerprints as the
// fault-free reference. The router's rid-deduplicated retries are what
// make at-least-once wire delivery converge exactly once.
func TestShardedChaosConvergence(t *testing.T) {
	const clients, edits = 6, 8
	want := referenceFingerprints(clients, edits)

	fnet := faultnet.New(faultnet.Config{Seed: 1234, DropProb: 0.03, ResetProb: 0.02})
	l := memnet.Listen(64)
	s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{
		Shards:      4,
		PipeTimeout: 50 * time.Millisecond,
		ShardNet:    func(id int) ListenDialer { return fnet.Listen(id, 64) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A bounded chaos phase: 40 partition pulses, each blackholing 3
	// writes on a rotating shard link. Bounding the count (rather than
	// pulsing until the workload ends) guarantees the blackholes heal —
	// a pulse cadence faster than the link's write rate would re-arm the
	// swallow budget forever and the run could never converge. Drops and
	// resets keep firing for the whole run regardless.
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
	shardedWorkload(t, l, clients, edits, ClientOptions{
		RequestTimeout: 500 * time.Millisecond,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 2000},
	}, 3)
	close(stop)
	pulses.Wait()
	for id := 0; id < 4; id++ {
		fnet.Heal(id)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if injected := fnet.Stats().Get("drop") + fnet.Stats().Get("reset"); injected == 0 {
		t.Fatal("no faults were injected; the chaos run proved nothing")
	}
	finals := checkFingerprints(t, s, want)
	checkShardedExactlyOnce(t, finals, clients, edits)
	if got, wantEdits := s.Edits(), int64(clients*edits); got != wantEdits {
		t.Errorf("edits = %d, want exactly %d", got, wantEdits)
	}
}

// TestRouteOfNoAllocs: the live router's lookup runs on every forwarded
// op, so it must not allocate. With shard's TestRingOwnerNoAllocs it holds
// the routing budget of zero allocations.
func TestRouteOfNoAllocs(t *testing.T) {
	s, err := ServeSharded(memnet.Listen(16), initialOf(shardedDocs), ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	avg := testing.AllocsPerRun(200, func() {
		for _, d := range shardedDocs {
			if s.RouteOf(d) < 0 {
				t.Fatalf("no route for %s", d)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("RouteOf allocates %.1f times per %d lookups, want 0", avg, len(shardedDocs))
	}
}

// TestShardedKillResume SIGKILLs one shard mid-traffic and resumes it
// from its journal; every client must still complete its workload and
// the final fingerprints must match the fault-free reference — acked ops
// survive the kill (flushed before ack), unacked ones are retried under
// their original rid, so nothing applies twice.
func TestShardedKillResume(t *testing.T) {
	const clients, edits = 6, 10
	want := referenceFingerprints(clients, edits)

	l := memnet.Listen(64)
	s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{
		Shards: 2,
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := s.RouteOf(shardedDocs[0])
	if victim < 0 {
		t.Fatal("no route for doc 0")
	}

	workDone := make(chan struct{})
	go func() {
		defer close(workDone)
		shardedWorkload(t, l, clients, edits, ClientOptions{
			RequestTimeout: 500 * time.Millisecond,
			Backoff:        Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 5000},
		}, 3)
	}()

	time.Sleep(5 * time.Millisecond) // let traffic build up
	if err := s.KillShard(victim); err != nil {
		t.Fatalf("kill: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // dead air: clients shed BUSY and retry
	if err := s.ResumeShard(victim); err != nil {
		t.Fatalf("resume: %v", err)
	}
	<-workDone

	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	finals := checkFingerprints(t, s, want)
	checkShardedExactlyOnce(t, finals, clients, edits)
	if got, wantEdits := s.Edits(), int64(clients*edits); got != wantEdits {
		t.Errorf("edits = %d, want exactly %d", got, wantEdits)
	}
	if s.Stats().Get("shard_kills") != 1 || s.Stats().Get("shard_resumes") != 1 {
		t.Errorf("kill/resume counters = %d/%d, want 1/1",
			s.Stats().Get("shard_kills"), s.Stats().Get("shard_resumes"))
	}
}

// TestShardedRejectsLegacyMode pins the router's session-only contract.
func TestShardedRejectsLegacyMode(t *testing.T) {
	l := memnet.Listen(4)
	s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "INS 0 \"x\"\n")
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "session-only") {
		t.Fatalf("legacy mode not refused: %q", string(buf[:n]))
	}
	conn.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Get("legacy_refused") == 0 {
		t.Error("legacy_refused counter not bumped")
	}
}

// TestStaleEpochTaxonomy pins the satellite contract: a fenced shard's
// STALE answers classify under dist's epoch taxonomy, at both the
// handshake and the per-op layer.
func TestStaleEpochTaxonomy(t *testing.T) {
	nets := make(map[int]ListenDialer)
	var netsMu sync.Mutex
	l := memnet.Listen(4)
	s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{
		Shards: 2,
		ShardNet: func(id int) ListenDialer {
			n := memnet.Listen(64)
			netsMu.Lock()
			nets[id] = n
			netsMu.Unlock()
			return n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	netsMu.Lock()
	n0 := nets[0]
	netsMu.Unlock()

	// Handshake fence: SHELLO at a wrong epoch.
	pp := newShardPipes(0, n0, 1, time.Second)
	defer pp.closeAll()
	_, err = pp.exchange(0, 99, []string{"APPLY - 99 alpha GET"})
	if !errors.Is(err, dist.ErrStaleEpoch) {
		t.Fatalf("stale SHELLO: got %v, want dist.ErrStaleEpoch", err)
	}
	var stale dist.StaleEpochError
	if !errors.As(err, &stale) || stale.Epoch != 1 {
		t.Fatalf("stale SHELLO: details %+v, want host epoch 1", err)
	}

	// Per-op fence: correct handshake, wrong APPLY epoch.
	pp2 := newShardPipes(0, n0, 1, time.Second)
	defer pp2.closeAll()
	name := shardedDocs[0]
	for _, d := range shardedDocs { // find a doc shard 0 owns
		if s.RouteOf(d) == 0 {
			name = d
			break
		}
	}
	replies, err := pp2.exchange(0, 1, []string{fmt.Sprintf("APPLY t.1 7 %s INS 0 \"x\"", name)})
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if _, err := s.classifyReply(0, replies[0]); !errors.Is(err, dist.ErrStaleEpoch) {
		t.Fatalf("stale APPLY: got %v, want dist.ErrStaleEpoch", err)
	}
	if s.Stats().Get("shard_stale_apply") == 0 {
		t.Error("shard_stale_apply counter not bumped")
	}
}

// TestShardedHandoffMidTraffic joins a shard and drains another while
// clients are writing. Every document crossing a handoff boundary moves
// by fenced snapshot at a new epoch; in-flight ops either land before
// the fence (and travel, rid included) or retry against the new owner —
// the fingerprints and the exact edit count prove nothing was lost or
// doubled at either boundary.
func TestShardedHandoffMidTraffic(t *testing.T) {
	const clients, edits = 6, 12
	want := referenceFingerprints(clients, edits)

	l := memnet.Listen(64)
	s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	handoffs := make(chan error, 2)
	go func() {
		time.Sleep(2 * time.Millisecond)
		handoffs <- s.AddShard(7)
		time.Sleep(2 * time.Millisecond)
		handoffs <- s.DrainShard(0)
	}()
	shardedWorkload(t, l, clients, edits, testClientOpts(), 2)
	for i := 0; i < 2; i++ {
		if err := <-handoffs; err != nil {
			t.Fatalf("handoff: %v", err)
		}
	}
	if got := s.Epoch(); got != 3 {
		t.Errorf("epoch after two handoffs = %d, want 3", got)
	}
	if got := fmt.Sprint(s.ShardIDs()); got != "[1 7]" {
		t.Errorf("ring members = %v, want [1 7]", got)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	finals := checkFingerprints(t, s, want)
	checkShardedExactlyOnce(t, finals, clients, edits)
	if got, wantEdits := s.Edits(), int64(clients*edits); got != wantEdits {
		t.Errorf("edits = %d, want exactly %d", got, wantEdits)
	}
}
