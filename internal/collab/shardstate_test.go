package collab

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/memnet"
	"repro/internal/shard"
	"repro/internal/stats"
)

// netBook records the transport of every shard incarnation so a test can
// dial a shard host directly, past the router.
type netBook struct {
	mu   sync.Mutex
	nets map[int]ListenDialer
}

func (b *netBook) listen(id int) ListenDialer {
	n := memnet.Listen(64)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nets == nil {
		b.nets = make(map[int]ListenDialer)
	}
	b.nets[id] = n
	return n
}

// pipe opens a one-connection pool straight to shard id's current
// incarnation.
func (b *netBook) pipe(t *testing.T, id int) *shardPipes {
	t.Helper()
	b.mu.Lock()
	n := b.nets[id]
	b.mu.Unlock()
	if n == nil {
		t.Fatalf("no transport recorded for shard %d", id)
	}
	pp := newShardPipes(id, n, 1, 2*time.Second)
	t.Cleanup(pp.closeAll)
	return pp
}

// applyDirect sends one APPLY line over pp and returns the reply line.
func applyDirect(t *testing.T, pp *shardPipes, epoch uint64, rid, doc, cmd string) string {
	t.Helper()
	replies, err := pp.exchange(0, epoch, []string{fmt.Sprintf("APPLY %s %d %s %s", rid, epoch, doc, cmd)})
	if err != nil {
		t.Fatalf("APPLY %s: %v", rid, err)
	}
	return replies[0]
}

// snapshotFrame returns the records of the snapshot frame heading shard
// id's op log under dir. The log must not be open for writing.
func snapshotFrame(t *testing.T, dir string, id int) []string {
	t.Helper()
	log, frames, damage := shard.RecoverOpLog(filepath.Join(dir, journal.ShardDirName(id), "ops.log"))
	if log == nil || damage != nil || len(frames) == 0 {
		t.Fatalf("shard %d op log: %d frames, damage %v", id, len(frames), damage)
	}
	log.Close()
	return frames[0]
}

// TestShardStateStaysBounded is the bounded-state acceptance test: after
// 20 000 mutations by 2 sessions on one journaled shard, what the shard
// keeps between batches is a function of sessions and documents, not of
// ops — 2 watermark entries, no claim in flight, root op logs trimmed to
// (next to) nothing — and a handoff writes snapshot frames of at most
// 2 + documents + sessions records where it used to write one per op ever
// applied.
func TestShardStateStaysBounded(t *testing.T) {
	const sessions, perSession, docs = 2, 10000, 4
	marker := func(sess, j int) string { return fmt.Sprintf("%d%06d;", sess, j) } // 8 runes
	initial := make(map[string]string, docs)
	for d := 0; d < docs; d++ {
		initial[fmt.Sprintf("doc%d", d)] = strings.Repeat("initial;", 8)
	}
	dir := t.TempDir()
	l := memnet.Listen(16)
	s, err := ServeSharded(l, initial, ShardedOptions{Shards: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	clients := make([]*Client, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for id := range clients {
		c, err := DialWith(l, testClientOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[id] = c
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each step prepends a marker and deletes the one behind it, so
			// every op mutates and the document keeps its 64 runes. Half way
			// the session moves to a second document.
			for j := 0; j < perSession; j += 2 {
				if j == 0 || j == perSession/2 {
					if _, err := c.Use(fmt.Sprintf("doc%d", id+sessions*(2*j/perSession))); err != nil {
						errs <- err
						return
					}
				}
				c.QueueInsert(0, marker(id, j))
				c.QueueDelete(8, 8)
				if c.Queued() >= 8 {
					if err := c.Flush(); err != nil {
						errs <- fmt.Errorf("session %d flush at %d: %w", id, j, err)
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				errs <- err
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Quiescence: a connection task pins history from its last Sync on (an
	// idle pipe is one of the things still unbounded), so once both sessions
	// are done each reads once more — a read is a Sync too — and every pin
	// is up to date.
	for _, c := range clients {
		if _, err := c.Get(); err != nil {
			t.Fatal(err)
		}
	}

	st := s.ShardState()
	t.Logf("after %d mutations: %+v", sessions*perSession, st)
	if st.Watermarks != sessions || st.InFlight != 0 {
		t.Errorf("exactly-once state %+v, want %d watermark entries and no claim in flight", st, sessions)
	}
	if st.RetainedOps > 8 {
		t.Errorf("root op logs retain %d ops at quiescence, want ≤ 8", st.RetainedOps)
	}

	if err := s.AddShard(1); err != nil {
		t.Fatal(err)
	}
	if st := s.ShardState(); st.Watermarks != sessions*len(s.ShardIDs()) || st.InFlight != 0 {
		t.Errorf("after the handoff %+v, want every restarted shard seeded with all %d watermarks", st, sessions)
	}
	for _, c := range clients {
		if err := c.Bye(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, id := range s.ShardIDs() {
		snap := snapshotFrame(t, dir, id)
		records += len(snap)
		for _, rec := range snap {
			if tag := rec[:2]; !strings.Contains("E B S W ", tag) {
				t.Errorf("shard %d snapshot holds a %q record: %q", id, tag, rec)
			}
		}
	}
	if max := len(s.ShardIDs())*(2+sessions) + docs; records > max {
		t.Errorf("handoff snapshot frames hold %d records, want ≤ %d (2 + documents + sessions per shard)", records, max)
	}
	if got := s.Edits(); got != sessions*perSession {
		t.Errorf("edits = %d, want exactly %d", got, sessions*perSession)
	}
	for name := range initial {
		if doc, _ := s.Document(name); len(doc) != 64 {
			t.Errorf("document %q ended %d runes long, want 64: %q", name, len(doc), doc)
		}
	}
}

// hostFixture starts one bare shard incarnation over a single document
// and returns it with a direct pipe.
func hostFixture(t *testing.T, content string, marks map[string]uint64, log *shard.OpLog) (*shardHost, *shardPipes) {
	t.Helper()
	n := memnet.Listen(8)
	h, err := startShardHost(0, 1, map[string]string{"doc": content}, marks, 0, n, shardHostConfig{
		counters: stats.NewCounters(),
		hist:     stats.NewLatencyHistogram(),
		fence:    true,
		log:      log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.kill)
	pp := newShardPipes(0, n, 1, 2*time.Second)
	t.Cleanup(pp.closeAll)
	return h, pp
}

// TestWatermarkSeedDecidesReplay runs the explorer's duplicate-delivery
// probe against bare incarnations: probe.1 and probe.2 apply, and a
// re-sent probe.1 is answered by replay — at once, and by a successor
// seeded with the retired incarnation's watermarks. A successor started
// with an empty seed (what a handoff that dropped them would do) applies
// it a second time, which is what proves the explorer's check bites.
func TestWatermarkSeedDecidesReplay(t *testing.T) {
	first, pp := hostFixture(t, "", nil, nil)
	for i, text := range []string{"one;", "two;"} {
		rid := fmt.Sprintf("probe.%d", i+1)
		if reply := applyDirect(t, pp, 1, rid, "doc", "INS 0 "+strconv.Quote(text)); !strings.HasPrefix(reply, "OK "+rid+" ") {
			t.Fatalf("%s: %q", rid, reply)
		}
	}
	resend := func(pp *shardPipes) string {
		return applyDirect(t, pp, 1, "probe.1", "doc", `INS 0 "one;"`)
	}
	if reply := resend(pp); reply != `OK probe.1 "two;one;"` {
		t.Fatalf("duplicate probe.1 at once: %q, want a replay of the current document", reply)
	}
	for _, rid := range []string{"probe", "probe.", "probe.0", "probe.x", ".7"} {
		if reply := applyDirect(t, pp, 1, rid, "doc", `INS 0 "bad;"`); reply != "ERR "+rid+" bad rid" {
			t.Errorf("rid %q: %q, want a bad-rid refusal", rid, reply)
		}
	}
	if err := first.shutdown(); err != nil {
		t.Fatal(err)
	}
	contents, marks := first.contents()["doc"], first.watermarks()
	if contents != "two;one;" || first.finalEdits() != 2 || len(marks) != 1 || marks["probe"] != 2 {
		t.Fatalf("retired incarnation: doc %q, %d edits, watermarks %v", contents, first.finalEdits(), marks)
	}

	seeded, pp := hostFixture(t, contents, marks, nil)
	if reply := resend(pp); reply != `OK probe.1 "two;one;"` {
		t.Errorf("duplicate probe.1 after a handoff that carried the watermarks: %q", reply)
	}
	seeded.shutdown()
	if seeded.finalEdits() != 0 || seeded.cfg.counters.Get("shard_replayed") != 1 {
		t.Errorf("seeded successor applied %d edits, %d replays; want 0 and 1", seeded.finalEdits(), seeded.cfg.counters.Get("shard_replayed"))
	}

	amnesiac, pp := hostFixture(t, contents, nil, nil)
	if reply := resend(pp); reply != `OK probe.1 "one;two;one;"` {
		t.Errorf("duplicate probe.1 on a successor with an empty seed: %q, want the double apply", reply)
	}
	amnesiac.shutdown()
	if amnesiac.finalEdits() != 1 {
		t.Errorf("empty-seed successor applied %d edits, want the 1 duplicate", amnesiac.finalEdits())
	}
}

// TestSnapshotFramesAreByteIdentical pins deterministic op-log bytes: two
// incarnations seeded with equal state — enough watermarks that map
// iteration order would differ — write the same snapshot frame, W records
// sorted like the S records.
func TestSnapshotFramesAreByteIdentical(t *testing.T) {
	marks := make(map[string]uint64)
	for i := 0; i < 64; i++ {
		marks[fmt.Sprintf("r0.s%d", i)] = uint64(1000 - i)
	}
	var files [2][]byte
	var path string
	for i := range files {
		path = filepath.Join(t.TempDir(), "ops.log")
		log, err := shard.CreateOpLog(path)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := hostFixture(t, "same;", marks, log)
		h.kill()
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(files[0]) == 0 || !bytes.Equal(files[0], files[1]) {
		t.Fatalf("equal state wrote different snapshot bytes (%d vs %d)", len(files[0]), len(files[1]))
	}
	// And the W records read back to the watermarks they were written from.
	if _, got, _, _, err := replayShardLog(path); err != nil || !maps.Equal(got, marks) {
		t.Fatalf("replayed watermarks %v (err %v), want %v", got, err, marks)
	}
}

// TestDurabilityFailureReleasesClaims pins the PR 10 review rule under
// the watermark scheme: when the op log refuses a batch that is already
// applied and merged, the batch's claims are released without raising the
// watermark and the incarnation is killed, so no retry can reach the
// unlogged state.
func TestDurabilityFailureReleasesClaims(t *testing.T) {
	log, err := shard.CreateOpLog(filepath.Join(t.TempDir(), "ops.log"))
	if err != nil {
		t.Fatal(err)
	}
	h, pp := hostFixture(t, "", nil, log)
	if reply := applyDirect(t, pp, 1, "r0.s1.1", "doc", `INS 0 "kept;"`); !strings.HasPrefix(reply, "OK ") {
		t.Fatal(reply)
	}
	log.Close() // the disk goes away under the running incarnation
	if _, err := pp.exchange(0, 1, []string{`APPLY r0.s1.2 1 doc INS 0 "lost;"`}); err == nil {
		t.Fatal("an op the log refused was acked")
	}
	h.wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.killed || len(h.inflight) != 0 || h.marks["r0.s1"] != 1 {
		t.Errorf("after the durability failure: killed=%v, %d claims in flight, watermark %d; want killed, 0 and 1", h.killed, len(h.inflight), h.marks["r0.s1"])
	}
}

// TestRollbackRestartsWithWatermarks fails a rebalance after its drain —
// the joining shard's journal directory cannot be created — and checks
// that the rolled-back incarnations came up with the collected
// watermarks: a duplicate of an op applied before the rebalance is
// answered by replay, not applied again.
func TestRollbackRestartsWithWatermarks(t *testing.T) {
	dir := t.TempDir()
	book := &netBook{}
	l := memnet.Listen(4)
	s, err := ServeSharded(l, initialOf(shardedDocs), ShardedOptions{Shards: 2, Dir: dir, ShardNet: book.listen})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	for _, name := range shardedDocs {
		rid := "probe-" + name + ".1"
		reply := applyDirect(t, book.pipe(t, s.RouteOf(name)), s.Epoch(), rid, name, `INS 0 "once;"`)
		if !strings.HasPrefix(reply, "OK "+rid+" ") {
			t.Fatalf("%s: %q", rid, reply)
		}
	}
	// A file where shard 7's directory should go.
	if err := os.WriteFile(filepath.Join(dir, journal.ShardDirName(7)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.AddShard(7); err == nil {
		t.Fatal("AddShard succeeded although shard 7 cannot journal")
	}
	if s.Stats().Get("rebalance_rollbacks") != 1 || s.Epoch() != 1 {
		t.Fatalf("rollbacks = %d, epoch = %d; want 1 and 1", s.Stats().Get("rebalance_rollbacks"), s.Epoch())
	}
	for _, name := range shardedDocs {
		rid := "probe-" + name + ".1"
		reply := applyDirect(t, book.pipe(t, s.RouteOf(name)), s.Epoch(), rid, name, `INS 0 "once;"`)
		if reply != "OK "+rid+` "once;"` {
			t.Errorf("duplicate %s after the rollback: %q, want a replay", rid, reply)
		}
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := s.Edits(); got != int64(len(shardedDocs)) {
		t.Errorf("edits = %d, want exactly %d", got, len(shardedDocs))
	}
}
