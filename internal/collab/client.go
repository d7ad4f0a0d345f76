package collab

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Dialer produces connections to a server; *memnet.Listener and
// *faultnet.Listener both satisfy it, so the same client runs hermetic
// and under chaos.
type Dialer interface {
	Dial() (net.Conn, error)
}

// Backoff is a capped exponential reconnect/retry policy.
type Backoff struct {
	// Base is the first delay (default 1ms); each retry doubles it up to
	// Cap (default 100ms).
	Base time.Duration
	Cap  time.Duration
	// MaxAttempts bounds dial/retry attempts per operation (default 12).
	MaxAttempts int
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 100 * time.Millisecond
	}
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 12
	}
	return b
}

// delay returns the capped exponential delay for the given 0-based
// attempt.
func (b Backoff) delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	return d
}

// ClientOptions tunes the resilient client.
type ClientOptions struct {
	// RequestTimeout bounds each attempt of a round trip (write + read).
	// An expired attempt drops the connection and retries through
	// reconnect+RESUME. Zero means 10s.
	RequestTimeout time.Duration
	// Backoff paces reconnects and BUSY retries.
	Backoff Backoff
	// NoAutoResume disables transparent reconnection: transport errors
	// surface to the caller, who drives Reconnect/NewSession explicitly
	// (the schedule explorer's mode).
	NoAutoResume bool
	// MaxBatch caps ops per batch frame sent by Flush. It must not
	// exceed the server's replay window or a reconnect mid-frame can
	// lose replay coverage. Zero means 8 (the default window).
	MaxBatch int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = defaultWindow
	}
	o.Backoff = o.Backoff.withDefaults()
	return o
}

// Client is a resilient session client for the collaborative servers: it
// holds a server-issued session id, numbers every request with a monotone
// sequence number, applies a per-request deadline, and — unless
// NoAutoResume is set — survives transport failure by reconnecting with
// capped exponential backoff and RESUME-ing its session, re-sending the
// in-flight request so the server's replay window deduplicates it.
type Client struct {
	d    Dialer
	opts ClientOptions

	mu       sync.Mutex
	conn     net.Conn
	r        *lineReader
	sid      string
	nextSeq  uint64
	acked    uint64 // highest reply seq received
	inflight string // full request line awaiting a reply ("" when idle)
	queue    []queuedOp
	closed   bool
	counters *stats.Counters
}

// Dial connects a new session client with default options.
func Dial(d Dialer) (*Client, error) {
	return DialWith(d, ClientOptions{})
}

// DialWith connects a new session client, retrying BUSY admission sheds
// within the backoff budget.
func DialWith(d Dialer, opts ClientOptions) (*Client, error) {
	c := &Client{d: d, opts: opts.withDefaults(), counters: stats.NewCounters()}
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		err := c.helloLocked()
		if err == nil {
			return c, nil
		}
		if attempt+1 >= c.opts.Backoff.MaxAttempts || errors.Is(err, ErrSessionExpired) {
			return nil, err
		}
		c.sleep(err, attempt)
	}
}

// sleep pauses for the backoff delay, stretched to the server's
// advertised retry-after hint when the error carries one.
func (c *Client) sleep(err error, attempt int) {
	d := c.opts.Backoff.delay(attempt)
	var over *OverloadedError
	if errors.As(err, &over) && over.RetryAfter > d {
		d = over.RetryAfter
	}
	time.Sleep(d)
}

// helloLocked dials and opens a fresh session.
func (c *Client) helloLocked() error {
	conn, r, line, err := c.handshakeLocked("HELLO")
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	switch {
	case len(fields) == 2 && fields[0] == "OK":
		c.conn, c.r = conn, r
		c.sid = fields[1]
		c.nextSeq, c.acked, c.inflight = 1, 0, ""
		c.counters.Inc("sessions")
		return nil
	case len(fields) == 2 && fields[0] == "BUSY":
		conn.Close()
		c.counters.Inc("shed")
		return &OverloadedError{Reason: "sessions", RetryAfter: retryHint(fields[1])}
	default:
		conn.Close()
		return &ProtocolError{Detail: fmt.Sprintf("bad HELLO reply %q", line)}
	}
}

// resumeLocked dials and re-attaches the existing session.
func (c *Client) resumeLocked() error {
	if c.sid == "" {
		return c.helloLocked()
	}
	conn, r, line, err := c.handshakeLocked(fmt.Sprintf("RESUME %s %d", c.sid, c.acked))
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	switch {
	case len(fields) == 3 && fields[0] == "OK" && fields[1] == c.sid:
		c.conn, c.r = conn, r
		c.counters.Inc("resumes")
		return nil
	case len(fields) >= 2 && fields[0] == "BUSY":
		conn.Close()
		return &OverloadedError{Reason: "sessions", RetryAfter: retryHint(fields[1])}
	case len(fields) >= 2 && fields[0] == "ERR" && fields[1] == "SESSION-EXPIRED":
		conn.Close()
		c.counters.Inc("expired")
		return &SessionExpiredError{ID: c.sid}
	default:
		conn.Close()
		return &ProtocolError{Detail: fmt.Sprintf("bad RESUME reply %q", line)}
	}
}

// handshakeLocked dials and performs one deadline-guarded handshake round
// trip, returning the connection together with the reader that served it
// (the two must be adopted — or discarded — as a pair).
func (c *Client) handshakeLocked(req string) (net.Conn, *lineReader, string, error) {
	if c.closed {
		return nil, nil, "", ErrClientClosed
	}
	c.dropLocked()
	conn, err := c.d.Dial()
	if err != nil {
		return nil, nil, "", fmt.Errorf("collab: dial: %w", err)
	}
	r := newLineReader(conn)
	conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	if _, err := io.WriteString(conn, req+"\n"); err != nil {
		conn.Close()
		return nil, nil, "", fmt.Errorf("collab: handshake write: %w", err)
	}
	line, err := r.ReadLine()
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, nil, "", fmt.Errorf("collab: handshake read: %w", err)
	}
	return conn, r, line, nil
}

// serverError is an acked ERR of a category this client does not know:
// the request resolved server-side, so retrying cannot help.
type serverError struct{ detail string }

func (e *serverError) Error() string { return "collab: server: " + e.detail }

func retryHint(ms string) time.Duration {
	n, err := strconv.Atoi(ms)
	if err != nil || n < 1 {
		n = 1
	}
	return time.Duration(n) * time.Millisecond
}

// dropLocked discards the connection and its reader together.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

// roundtrip sends one numbered request and resolves its reply, driving
// reconnect+RESUME, BUSY backoff and replay dedup.
func (c *Client) roundtrip(format string, args ...any) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClientClosed
	}
	// Flush-on-sync: queued batch ops ship before any direct request so
	// the server applies everything in the order the caller issued it.
	if len(c.queue) > 0 {
		if err := c.flushLocked(); err != nil {
			return "", err
		}
	}
	seq := c.nextSeq
	line := fmt.Sprintf("%d %s", seq, fmt.Sprintf(format, args...))
	c.inflight = line
	return c.finishLocked(seq)
}

// finishLocked drives the in-flight request to a reply (or error),
// re-sending the same sequence number across reconnects so the server's
// replay window deduplicates retries.
func (c *Client) finishLocked(seq uint64) (string, error) {
	line := c.inflight
	for attempt := 0; ; attempt++ {
		if attempt >= c.opts.Backoff.MaxAttempts {
			return "", &OverloadedError{Reason: "retries exhausted", RetryAfter: c.opts.Backoff.Cap}
		}
		if c.conn == nil {
			if c.opts.NoAutoResume {
				return "", fmt.Errorf("collab: not connected (auto-resume disabled): %w", net.ErrClosed)
			}
			if err := c.resumeLocked(); err != nil {
				if errors.Is(err, ErrSessionExpired) || errors.Is(err, ErrClientClosed) {
					return "", err
				}
				c.counters.Inc("reconnect_retry")
				c.sleep(err, attempt)
				continue
			}
		}
		payload, err := c.attemptLocked(seq, line)
		if err == nil {
			c.inflight = ""
			return payload, nil
		}
		var busy *OverloadedError
		switch {
		case errors.As(err, &busy) && busy.Reason == "request":
			// Shed, not acked: retry the same seq after the hint.
			c.counters.Inc("busy")
			c.sleep(err, attempt)
		case errors.Is(err, ErrProtocol), errors.Is(err, ErrReadOnly), errors.Is(err, ErrSessionExpired),
			errors.As(err, new(*serverError)):
			// The request is resolved (acked error, dead session, or a
			// server-side merge failure); retrying cannot help.
			c.inflight = ""
			return "", err
		default:
			// Transport failure: drop the connection (and its reader) and
			// go around through reconnect+RESUME.
			c.counters.Inc("transport_errors")
			c.dropLocked()
			if c.opts.NoAutoResume {
				return "", err
			}
			c.sleep(err, attempt)
		}
	}
}

// attemptLocked performs one deadline-guarded send+receive of the
// in-flight line and classifies the reply.
func (c *Client) attemptLocked(seq uint64, line string) (string, error) {
	c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	defer func() {
		if c.conn != nil {
			c.conn.SetDeadline(time.Time{})
		}
	}()
	if _, err := io.WriteString(c.conn, line+"\n"); err != nil {
		return "", fmt.Errorf("collab: write: %w", err)
	}
	for {
		reply, err := c.r.ReadLine()
		if err != nil {
			return "", fmt.Errorf("collab: read: %w", err)
		}
		status, rest, _ := strings.Cut(strings.TrimSpace(reply), " ")
		seqStr, detail, _ := strings.Cut(rest, " ")
		rseq, perr := strconv.ParseUint(seqStr, 10, 64)
		if perr != nil {
			return "", &ProtocolError{Detail: fmt.Sprintf("unnumbered reply %q", reply)}
		}
		if rseq < seq {
			continue // stale reply from a previous attempt's replay
		}
		if rseq > seq {
			return "", &ProtocolError{Detail: fmt.Sprintf("reply for future seq %d (sent %d)", rseq, seq)}
		}
		switch status {
		case "OK":
			c.acked = seq
			c.nextSeq = seq + 1
			doc, uerr := strconv.Unquote(strings.TrimSpace(detail))
			if uerr != nil {
				// LIST/USE payloads are quoted too; a bare payload is a
				// server bug.
				return "", &ProtocolError{Detail: fmt.Sprintf("bad payload in %q", reply)}
			}
			return doc, nil
		case "ERR":
			cat, why, _ := strings.Cut(detail, " ")
			c.acked = seq
			c.nextSeq = seq + 1
			switch cat {
			case "READONLY":
				return "", &ReadOnlyError{Reason: why}
			case "PROTOCOL":
				return "", &ProtocolError{Detail: why}
			default:
				return "", &serverError{detail: cat + " " + why}
			}
		case "BUSY":
			return "", &OverloadedError{Reason: "request", RetryAfter: retryHint(detail)}
		case "GONE":
			c.counters.Inc("gone")
			return "", &SessionExpiredError{ID: c.sid}
		default:
			return "", &ProtocolError{Detail: fmt.Sprintf("bad reply %q", reply)}
		}
	}
}

// Insert inserts text at pos and returns the post-merge document.
func (c *Client) Insert(pos int, text string) (string, error) {
	return c.roundtrip("INS %d %s", pos, strconv.Quote(text))
}

// Delete removes n runes at pos and returns the post-merge document.
func (c *Client) Delete(pos, n int) (string, error) {
	return c.roundtrip("DEL %d %d", pos, n)
}

// Get fetches the current document.
func (c *Client) Get() (string, error) {
	return c.roundtrip("GET")
}

// Use selects the named document and returns its content. Document ops
// need a selection first. The selection is session state: it survives
// reconnects and RESUME, not NewSession.
func (c *Client) Use(name string) (string, error) {
	return c.roundtrip("USE %s", name)
}

// List returns the comma-joined names of the hosted documents.
func (c *Client) List() (string, error) {
	return c.roundtrip("LIST")
}

// Bye ends the session gracefully and closes the connection. A session
// already gone counts as closed.
func (c *Client) Bye() error {
	_, err := c.roundtrip("BYE")
	if errors.Is(err, ErrSessionExpired) {
		err = nil
	}
	c.Close()
	return err
}

// BeginInsert sends an INS without waiting for the reply, leaving the
// request in flight — the test hook for exercising the dropped-ack path.
// Drive it to completion with Finish (after Drop/Reconnect as desired).
func (c *Client) BeginInsert(pos int, text string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if c.conn == nil {
		return fmt.Errorf("collab: not connected: %w", net.ErrClosed)
	}
	seq := c.nextSeq
	line := fmt.Sprintf("%d INS %d %s", seq, pos, strconv.Quote(text))
	c.inflight = line
	c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	_, err := io.WriteString(c.conn, line+"\n")
	c.conn.SetDeadline(time.Time{})
	return err
}

// Finish re-sends the in-flight request (same sequence number — the
// server replays the recorded reply if it already applied it) and awaits
// the reply.
func (c *Client) Finish() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight == "" {
		return "", &ProtocolError{Detail: "no request in flight"}
	}
	return c.finishLocked(c.nextSeq)
}

// Drop abandons the transport without ending the session — simulating a
// network failure. The session stays resumable on the server.
func (c *Client) Drop() {
	c.mu.Lock()
	c.dropLocked()
	c.mu.Unlock()
}

// Reconnect dials and RESUMEs the session explicitly (for NoAutoResume
// clients); errors.Is(err, ErrSessionExpired) reports an evicted session.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumeLocked()
}

// NewSession abandons any current session and opens a fresh one (the
// recovery path after ErrSessionExpired). Sequence numbering restarts.
func (c *Client) NewSession() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight = ""
	return c.helloLocked()
}

// SessionID returns the server-issued session id.
func (c *Client) SessionID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sid
}

// Stats exposes client-side resilience counters ("sessions", "resumes",
// "busy", "transport_errors", "shed", "expired", ...).
func (c *Client) Stats() *stats.Counters { return c.counters }

// Close terminates the connection. It is idempotent and safe to call
// concurrently with in-flight requests (they fail with transport errors
// or ErrClientClosed).
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.dropLocked()
}
