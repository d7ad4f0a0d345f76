package collab

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memnet"
)

// serveDoc starts the single-process configuration — one shard hosting
// the one document "doc" — with the given front-door options.
func serveDoc(t *testing.T, l Listener, initial string, opts Options) *ShardedServer {
	t.Helper()
	s, err := ServeSharded(l, map[string]string{"doc": initial}, ShardedOptions{Front: opts})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dialDoc opens a session on d and selects "doc". It does not touch t, so
// client goroutines may call it.
func dialDoc(d Dialer, opts ClientOptions) (*Client, error) {
	c, err := DialWith(d, opts)
	if err == nil {
		_, err = c.Use("doc")
	}
	return c, err
}

// finalDoc shuts s down and returns the named document's final content.
func finalDoc(t *testing.T, s *ShardedServer, name string) string {
	t.Helper()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	doc, ok := s.Document(name)
	if !ok {
		t.Fatalf("lost document %q", name)
	}
	return doc
}

func TestSingleClientEditing(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "hello", Options{})
	c, err := dialDoc(l, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		op   func() (string, error)
		want string
	}{
		{func() (string, error) { return c.Insert(5, " world") }, "hello world"},
		{func() (string, error) { return c.Delete(0, 1) }, "ello world"},
		{func() (string, error) { return c.Insert(0, "H") }, "Hello world"},
	} {
		if doc, err := step.op(); err != nil || doc != step.want {
			t.Fatalf("step %d: doc = %q, %v; want %q", i, doc, err, step.want)
		}
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	if got := finalDoc(t, s, "doc"); got != "Hello world" {
		t.Fatalf("final doc = %q", got)
	}
	if s.Edits() != 3 {
		t.Fatalf("edits = %d", s.Edits())
	}
}

// appendConcurrently is the collaborative-editing core: `clients`
// sessions, spread round-robin over docs on one shard, each append
// `lines` unique markers at the end of the version they last saw. OT
// places concurrent appends safely; every marker must survive into its
// document exactly once.
func appendConcurrently(t *testing.T, docs []string, clients, lines int) {
	t.Helper()
	l := memnet.Listen(16)
	s, err := ServeSharded(l, initialOf(docs), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			errs <- func() error {
				c, err := DialWith(l, ClientOptions{})
				if err != nil {
					return err
				}
				defer c.Close()
				if _, err := c.Use(docs[id%len(docs)]); err != nil {
					return err
				}
				for j := 0; j < lines; j++ {
					doc, err := c.Get()
					if err == nil {
						_, err = c.Insert(len([]rune(doc)), fmt.Sprintf("c%d-%d;", id, j))
					}
					if err != nil {
						return err
					}
				}
				return c.Bye()
			}()
		}(id)
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < clients; id++ {
		doc, _ := s.Document(docs[id%len(docs)])
		for j := 0; j < lines; j++ {
			if m := fmt.Sprintf("c%d-%d;", id, j); strings.Count(doc, m) != 1 {
				t.Errorf("marker %q appears %d times in %q", m, strings.Count(doc, m), doc)
			}
		}
	}
	if got := s.Edits(); got != int64(clients*lines) {
		t.Errorf("edits = %d, want %d", got, clients*lines)
	}
}

func TestConcurrentClientsConverge(t *testing.T) { appendConcurrently(t, []string{"doc"}, 6, 5) }

// TestMultiDocConcurrentClients hammers two documents at once: two
// writers on each, so some sessions contend and others do not.
func TestMultiDocConcurrentClients(t *testing.T) { appendConcurrently(t, []string{"a", "b"}, 4, 4) }

// TestConcurrentEditorsAtSamePosition lets two clients fight over the
// document head; OT must keep both edits.
func TestConcurrentEditorsAtSamePosition(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "base", Options{})
	a, err := dialDoc(l, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dialDoc(l, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(0, "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(0, "B"); err != nil {
		t.Fatal(err)
	}
	doc, err := a.Get()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "A") || !strings.Contains(doc, "B") || !strings.Contains(doc, "base") {
		t.Fatalf("doc = %q, lost an edit", doc)
	}
	a.Close()
	b.Close()
	if got := finalDoc(t, s, "doc"); got != doc {
		t.Fatalf("final doc = %q, last read %q", got, doc)
	}
}

// TestProtocolErrors exercises the error replies without killing the
// session or the server.
func TestProtocolErrors(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "abc", Options{})
	c, err := dialDoc(l, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NONSENSE", "INS x y", "INS 0 notquoted", "DEL 0"} {
		if _, err := c.roundtrip("%s", bad); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
	// The session still works afterwards.
	doc, err := c.Insert(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if doc != "xabc" {
		t.Fatalf("doc = %q", doc)
	}
	// Clamped edits succeed.
	if _, err := c.Insert(999, "!"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(999, 5); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := finalDoc(t, s, "doc"); got != "xabc!" {
		t.Fatalf("final doc = %q", got)
	}
}

// TestAbruptDisconnects drops clients mid-session; the server must keep
// running and shut down cleanly.
func TestAbruptDisconnects(t *testing.T) {
	l := memnet.Listen(16)
	s := serveDoc(t, l, "", Options{})
	for i := 0; i < 4; i++ {
		c, err := dialDoc(l, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		c.Close() // no goodbye
	}
	if got := finalDoc(t, s, "doc"); got != "xxxx" {
		t.Fatalf("doc = %q", got)
	}
}

func TestMultiDocBasics(t *testing.T) {
	l := memnet.Listen(16)
	s, err := ServeSharded(l, map[string]string{"notes": "n", "todo": "t"}, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(l)
	if err != nil {
		t.Fatal(err)
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if names != "notes,todo" {
		t.Fatalf("names = %q", names)
	}
	if _, err := c.Insert(0, "x"); err == nil {
		t.Fatal("editing before USE should error")
	}
	doc, err := c.Use("notes")
	if err != nil || doc != "n" {
		t.Fatalf("use notes = %q, %v", doc, err)
	}
	if doc, err = c.Insert(1, "ote"); err != nil || doc != "note" {
		t.Fatalf("insert = %q, %v", doc, err)
	}
	if doc, err = c.Use("todo"); err != nil || doc != "t" {
		t.Fatalf("use todo = %q, %v", doc, err)
	}
	if doc, err = c.Insert(1, "odo"); err != nil || doc != "todo" {
		t.Fatalf("insert = %q, %v", doc, err)
	}
	if _, err := c.Use("missing"); err == nil {
		t.Fatal("unknown document should error")
	}
	c.Close()
	if got := finalDoc(t, s, "notes"); got != "note" {
		t.Fatalf("notes = %q", got)
	}
	if got, _ := s.Document("todo"); got != "todo" {
		t.Fatalf("todo = %q", got)
	}
	if _, ok := s.Document("missing"); ok {
		t.Fatal("missing doc should not resolve")
	}
	if s.Edits() != 2 {
		t.Fatalf("edits = %d", s.Edits())
	}
	if got := s.Names(); len(got) != 2 || got[0] != "notes" {
		t.Fatalf("names = %v", got)
	}
}
