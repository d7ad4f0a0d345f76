package collab

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/memnet"
)

// TestQueueCoalescesRuns checks the client-side run coalescing: an
// insert continuing exactly where the previous one ended extends it, a
// delete at the same position widens the previous delete, and anything
// else starts a new queued op.
func TestQueueCoalescesRuns(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "0123456789", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}

	c.QueueInsert(0, "ab")
	c.QueueInsert(2, "cd") // extends "ab" at rune position 0+2
	c.QueueInsert(9, "x")  // gap: new run
	if got := c.Queued(); got != 2 {
		t.Fatalf("queued after insert coalescing = %d, want 2", got)
	}
	c.QueueDelete(5, 1)
	c.QueueDelete(5, 2) // widens the delete at 5
	c.QueueDelete(0, 1) // different position: new op
	if got := c.Queued(); got != 4 {
		t.Fatalf("queued after delete coalescing = %d, want 4", got)
	}
	if got := c.Stats().Get("coalesced"); got != 2 {
		t.Fatalf("coalesced counter = %d, want 2", got)
	}

	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("queued after flush = %d, want 0", got)
	}
	// Applied in queue order against "0123456789":
	// INS 0 "abcd" -> "abcd0123456789"; INS 9 "x" -> "abcd01234x56789";
	// DEL 5 3 -> "abcd04x56789"; DEL 0 1 -> "bcd04x56789".
	doc, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	const want = "bcd04x56789"
	if doc != want {
		t.Fatalf("doc after coalesced flush = %s, want %s", doc, want)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueCoalescingIsRuneAware queues multi-byte text: the
// continuation check must count runes, not bytes, or a follow-up insert
// lands mid-character.
func TestQueueCoalescingIsRuneAware(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.QueueInsert(0, "héllo") // 5 runes, 6 bytes
	c.QueueInsert(5, "!")     // continues at rune 5: coalesces
	if got := c.Queued(); got != 1 {
		t.Fatalf("queued = %d, want 1 (rune-aware coalescing)", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	if doc != "héllo!" {
		t.Fatalf("doc = %s, want %q", doc, "héllo!")
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushOnSync: any direct round trip (Get here) must flush the queue
// first, so queued edits are never reordered around direct ones.
func TestFlushOnSync(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.QueueInsert(0, "queued;")
	doc, err := c.Get() // never explicitly flushed
	if err != nil {
		t.Fatal(err)
	}
	if doc != "queued;" {
		t.Fatalf("Get did not flush the queue first: doc = %s", doc)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("queued after implicit flush = %d, want 0", got)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushDropsResolvedRefusals pins the queue-trim rule: every op the
// server acked — including per-op READONLY refusals — leaves the queue
// even when Flush returns an error. Without the trim a refused op stays
// queued forever, wedging every later Flush (and Bye), and resolved
// neighbors are re-sent under fresh sequence numbers the replay window
// cannot dedup — a double apply.
func TestFlushDropsResolvedRefusals(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.QueueInsert(0, "live;")
	if err := c.Flush(); err != nil {
		t.Fatalf("flush while live: %v", err)
	}

	s.Drain()
	c.QueueInsert(0, "refused;")
	c.QueueDelete(0, 1) // separator: a second distinct queued op
	if err := c.Flush(); err == nil {
		t.Fatal("flush while draining succeeded, want *ReadOnlyError")
	} else if !errors.As(err, new(*ReadOnlyError)) {
		t.Fatalf("flush while draining = %v, want *ReadOnlyError", err)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("queued after refused flush = %d, want 0 (refusals are resolved)", got)
	}

	s.Undrain()
	c.QueueInsert(0, "after;")
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after undrain: %v", err)
	}
	doc, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	if doc != "after;live;" {
		t.Fatalf("doc = %q, want %q (a resolved refusal must never be re-sent)", doc, "after;live;")
	}
	if err := c.Bye(); err != nil {
		t.Fatalf("bye after refused flush: %v", err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchChunksToReplayWindow queues far more distinct ops than
// MaxBatch: Flush must ship them in window-sized frames (so a reconnect
// can always resolve a cut frame by replay) and every op must apply
// exactly once. The server's frame counter proves the wire actually
// carried batch frames, not single lines.
func TestBatchChunksToReplayWindow(t *testing.T) {
	const ops = 20 // > 2x the default window of 8
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		c.QueueInsert(0, fmt.Sprintf("op%d;", i)) // never contiguous: no coalescing
		c.QueueDelete(0, 0)                       // zero-width separator keeps runs apart
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	doc := finalDoc(t, s, "doc")
	for i := 0; i < ops; i++ {
		marker := fmt.Sprintf("op%d;", i)
		if n := strings.Count(doc, marker); n != 1 {
			t.Errorf("marker %q appears %d times, want 1", marker, n)
		}
	}
	if frames := s.Stats().Get("frames"); frames < 3 {
		t.Errorf("server saw %d batch frames, want >= 3 (40 ops / window 8)", frames)
	}
}
