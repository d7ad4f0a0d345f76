package collab

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/memnet"
)

// waitCounter polls a counter until it reaches want — for asserting on
// server-side transitions (like a detach) that trail a client-side close.
func waitCounter(t *testing.T, get func(string) int64, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want >= %d", name, get(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// testClientOpts keeps hermetic tests fast: short per-request deadlines
// and tight backoff, but a generous retry budget.
func testClientOpts() ClientOptions {
	return ClientOptions{
		RequestTimeout: 2 * time.Second,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond, MaxAttempts: 40},
	}
}

// editScript is a fixed single-client editing session: a mix of inserts
// and deletes whose outcome is fully deterministic.
var editScript = []func(c *Client) (string, error){
	func(c *Client) (string, error) { return c.Insert(0, "hello") },
	func(c *Client) (string, error) { return c.Insert(5, " world") },
	func(c *Client) (string, error) { return c.Delete(0, 1) },
	func(c *Client) (string, error) { return c.Insert(0, "H") },
	func(c *Client) (string, error) { return c.Get() },
	func(c *Client) (string, error) { return c.Insert(11, "!") },
	func(c *Client) (string, error) { return c.Delete(5, 6) },
}

// runEditScript executes the script against a fresh server, killing the
// transport after request boundary dropAfter (len(script) means never),
// and returns the final document, edit counter and resume count.
func runEditScript(t *testing.T, dropAfter int) (string, int64, int64) {
	t.Helper()
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i, op := range editScript {
		if _, err := op(c); err != nil {
			t.Fatalf("drop-after-%d: op %d: %v", dropAfter, i, err)
		}
		if i == dropAfter {
			c.Drop() // socket dies right after the acked reply
		}
	}
	if dropAfter == len(editScript) {
		c.Drop() // boundary after the last request, before BYE
	}
	if err := c.Bye(); err != nil {
		t.Fatalf("drop-after-%d: bye: %v", dropAfter, err)
	}
	return finalDoc(t, s, "doc"), s.Edits(), s.Stats().Get("resumed")
}

// TestResumeAtEveryBoundary kills the socket after each acked reply in
// turn; every interrupted run must resume and finish with the document
// and edit counter bit-identical to the uninterrupted run — at
// GOMAXPROCS 1 and 4.
func TestResumeAtEveryBoundary(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(map[int]string{1: "gomaxprocs1", 4: "gomaxprocs4"}[procs], func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			refDoc, refEdits, _ := runEditScript(t, -1)
			if refDoc != "Hello!" || refEdits != 6 {
				t.Fatalf("reference run: doc %q edits %d", refDoc, refEdits)
			}
			for boundary := 0; boundary <= len(editScript); boundary++ {
				doc, edits, resumed := runEditScript(t, boundary)
				if doc != refDoc {
					t.Errorf("boundary %d: doc %q, want %q", boundary, doc, refDoc)
				}
				if edits != refEdits {
					t.Errorf("boundary %d: edits %d, want %d", boundary, edits, refEdits)
				}
				if resumed < 1 {
					t.Errorf("boundary %d: no resume happened", boundary)
				}
			}
		})
	}
}

// TestReplayDedup loses the reply of an applied edit, resumes, and
// re-sends the same request: the server must replay the recorded ack
// instead of applying the edit twice.
func TestReplayDedup(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The write completes (memnet delivers synchronously), then the
	// transport dies before the reply can be read: the classic lost-ack.
	if err := c.BeginInsert(0, "x"); err != nil {
		t.Fatal(err)
	}
	c.Drop()
	// Wait for the old attachment to finish: it applies the delivered
	// request, fails to write the reply, and detaches. Resuming before
	// that would race the steal — the old serve loop abandons requests
	// once its socket is no longer the session's attachment, and the
	// re-send would then apply fresh instead of exercising replay.
	waitCounter(t, s.Stats().Get, "detached", 1)
	if err := c.Reconnect(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	doc, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if doc != "x" {
		t.Fatalf("doc after dedup = %q", doc)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if got := finalDoc(t, s, "doc"); got != "x" {
		t.Fatalf("final doc = %q, edit applied twice or lost", got)
	}
	if s.Edits() != 1 {
		t.Fatalf("edits = %d, want exactly 1", s.Edits())
	}
	if s.Stats().Get("replayed") < 1 {
		t.Fatal("replay window was never used")
	}
}

// TestDeterministicEviction: a detached session is evicted after its
// seeded idle budget of logical ticks — driven purely by other sessions'
// traffic, never by wall time — and a resume attempt then fails with
// ErrSessionExpired; a fresh session recovers the client.
func TestDeterministicEviction(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{
		Seed:      7,
		Admission: Admission{IdleTicks: 3, IdleJitter: 2},
	})
	a, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(0, "a;"); err != nil {
		t.Fatal(err)
	}
	a.Drop() // detach; the idle clock starts ticking with b's traffic
	waitCounter(t, s.Stats().Get, "detached", 1)

	b, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // 12 ticks >> IdleTicks+jitter
		if _, err := b.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Reconnect(); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("resume after eviction: err = %v, want ErrSessionExpired", err)
	}
	if err := a.NewSession(); err != nil {
		t.Fatalf("new session after eviction: %v", err)
	}
	if _, err := a.Insert(0, "a2;"); err == nil {
		t.Fatal("the USE selection outlived its session")
	}
	if _, err := a.Use("doc"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(0, "a2;"); err != nil {
		t.Fatal(err)
	}
	if err := a.Bye(); err != nil {
		t.Fatal(err)
	}
	if err := b.Bye(); err != nil {
		t.Fatal(err)
	}
	doc := finalDoc(t, s, "doc")
	if got := s.Stats().Get("evicted"); got < 1 {
		t.Fatalf("evicted = %d, want >= 1", got)
	}
	if doc != "a2;a;" && doc != "a;a2;" {
		t.Fatalf("doc = %q", doc)
	}
}

// TestDrainReadOnly: a draining server refuses mutations with a typed
// reason while still serving reads, and Shutdown flushes live sessions.
func TestDrainReadOnly(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "base", Options{})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if _, err := c.Insert(0, "y"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("mutation while draining: err = %v, want ErrReadOnly", err)
	}
	doc, err := c.Get()
	if err != nil {
		t.Fatalf("read while draining: %v", err)
	}
	if doc != "xbase" {
		t.Fatalf("read while draining = %q", doc)
	}
	s.Undrain()
	if _, err := c.Insert(0, "z"); err != nil {
		t.Fatalf("mutation after undrain: %v", err)
	}
	if got := finalDoc(t, s, "doc"); got != "zxbase" {
		t.Fatalf("final doc = %q", got)
	}
	if s.Stats().Get("readonly_refused") != 1 {
		t.Fatalf("readonly_refused = %d", s.Stats().Get("readonly_refused"))
	}
	c.Close()
	c.Close() // Close is idempotent
	if _, err := c.Get(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("request after Close: err = %v, want ErrClientClosed", err)
	}
}

// TestErrorTaxonomy checks every typed failure is classifiable with
// errors.Is, mirroring dist's error style.
func TestErrorTaxonomy(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{Admission: Admission{MaxSessions: 1}})
	c, err := dialDoc(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Request-level protocol failures keep the session alive.
	if _, err := c.roundtrip("INS x y"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad INS: err = %v, want ErrProtocol", err)
	}
	if _, err := c.roundtrip("NONSENSE"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("unknown command: err = %v, want ErrProtocol", err)
	}
	if _, err := c.Insert(0, "still works"); err != nil {
		t.Fatalf("session should survive protocol errors: %v", err)
	}

	// The session gate sheds a second HELLO with BUSY; a bounded retry
	// budget surfaces it as ErrOverloaded.
	_, err = DialWith(l, ClientOptions{
		RequestTimeout: time.Second,
		Backoff:        Backoff{Base: time.Millisecond, Cap: time.Millisecond, MaxAttempts: 2},
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second session: err = %v, want ErrOverloaded", err)
	}
	if s.Stats().Get("shed") < 1 {
		t.Fatalf("shed = %d, want >= 1", s.Stats().Get("shed"))
	}

	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimitOverload exhausts a tiny token bucket (two tokens: the
// USE and one edit); the client's bounded retries surface ErrOverloaded.
func TestRateLimitOverload(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{
		Admission: Admission{RateBurst: 2, RateEvery: 1000},
	})
	c, err := dialDoc(l, ClientOptions{
		RequestTimeout: time.Second,
		Backoff:        Backoff{Base: time.Millisecond, Cap: time.Millisecond, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(0, "x"); err != nil { // burst token
		t.Fatal(err)
	}
	if _, err := c.Insert(0, "y"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("rate-limited request: err = %v, want ErrOverloaded", err)
	}
	if s.Stats().Get("busy_rate") < 1 {
		t.Fatalf("busy_rate = %d, want >= 1", s.Stats().Get("busy_rate"))
	}
	c.Close()
	if got := finalDoc(t, s, "doc"); got != "x" {
		t.Fatalf("doc = %q: a shed request must not half-apply", got)
	}
}

// TestMultiDocSelectionSurvivesResume: the USE selection is session
// state, so a reconnected client keeps editing the same document.
func TestMultiDocSelectionSurvivesResume(t *testing.T) {
	l := memnet.Listen(16)
	s, err := ServeSharded(l, map[string]string{"notes": "", "todo": ""}, ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(l, testClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Use("notes"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(0, "before;"); err != nil {
		t.Fatal(err)
	}
	c.Drop()
	// The next request auto-resumes; it must land in "notes" without a
	// fresh USE.
	if _, err := c.Insert(0, "after;"); err != nil {
		t.Fatal(err)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if notes := finalDoc(t, s, "notes"); notes != "after;before;" {
		t.Fatalf("notes = %q", notes)
	}
	if todo, _ := s.Document("todo"); todo != "" {
		t.Fatalf("todo = %q, edit leaked across documents", todo)
	}
	if s.Stats().Get("resumed") < 1 {
		t.Fatal("no resume happened")
	}
}
