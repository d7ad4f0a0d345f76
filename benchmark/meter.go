package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// link is a transport endpoint usable from both sides, which is what
// memnet.Listen returns and what the spine takes for its public listener
// and its shard fabric.
type link interface {
	Accept() (net.Conn, error)
	Dial() (net.Conn, error)
	Close() error
}

// leg measures one hop of the journey from outside the program: it wraps
// a link and sees only bytes and times, never the framing. Every Write on
// either end counts bytes and writes. On the dialing end an exchange
// opens at the first Write after a reply and closes at the last Read
// before the next Write: both protocols on these links are strict
// request/reply per connection, so that is one request and all of its
// replies whatever the codec.
type leg struct {
	name string
	rec  *recorder

	bytes, writes atomic.Int64

	mu    sync.Mutex
	durs  samples
	conns []*legConn
}

func newLeg(name string, rec *recorder) *leg { return &leg{name: name, rec: rec} }

// legSnapshot is what a leg saw since the last reset.
type legSnapshot struct {
	durs          samples
	bytes, writes int64
}

// snapshot closes the exchange each idle connection still holds open and
// returns the totals. Call it while no request is in flight.
func (l *leg) snapshot() legSnapshot {
	l.mu.Lock()
	conns := append([]*legConn(nil), l.conns...)
	l.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		c.closeExchange()
		c.mu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return legSnapshot{durs: append(samples(nil), l.durs...), bytes: l.bytes.Load(), writes: l.writes.Load()}
}

// reset forgets everything seen so far (handshakes, set-up, warm-up).
func (l *leg) reset() {
	l.snapshot()
	l.mu.Lock()
	l.durs = l.durs[:0]
	l.mu.Unlock()
	l.bytes.Store(0)
	l.writes.Store(0)
}

// cause ties an exchange to the span that caused it: called when an
// exchange opens on c (c.id is set), it returns the parent span and the
// request id, or (0, 0) when no single caller can be named. It may keep
// what it learns about the connection in c.owner.
type cause func(c *legConn) (parent, req uint64)

// Values of legConn.owner besides a caller's index.
const (
	ownerUnknown = -1
	ownerShared  = -2
)

// meteredLink wraps a link so that accepted connections count and dialed
// connections count and time.
type meteredLink struct {
	link
	leg   *leg
	cause cause
}

func (m *meteredLink) Accept() (net.Conn, error) {
	c, err := m.link.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, leg: m.leg}, nil
}

func (m *meteredLink) Dial() (net.Conn, error) { return m.dialAs(m.cause) }

func (m *meteredLink) dialAs(cs cause) (net.Conn, error) {
	c, err := m.link.Dial()
	if err != nil {
		return nil, err
	}
	lc := &legConn{Conn: c, leg: m.leg, cause: cs, owner: ownerUnknown}
	m.leg.mu.Lock()
	m.leg.conns = append(m.leg.conns, lc)
	m.leg.mu.Unlock()
	return lc, nil
}

// dialer is the dialing side of a meteredLink bound to one cause, so each
// client's connections name that client's calls as their parents.
type dialer struct {
	m     *meteredLink
	cause cause
}

func (d dialer) Dial() (net.Conn, error) { return d.m.dialAs(d.cause) }

type countConn struct {
	net.Conn
	leg *leg
}

// Write counts before it writes: the peer may read the bytes, and the
// benchmark a snapshot, before a count taken afterwards is stored.
func (c *countConn) Write(p []byte) (int, error) {
	c.leg.bytes.Add(int64(len(p)))
	c.leg.writes.Add(1)
	return c.Conn.Write(p)
}

type legConn struct {
	net.Conn
	leg   *leg
	cause cause
	owner int // the one caller seen using this connection, if any

	mu       sync.Mutex
	open     bool
	replied  bool
	id       uint64
	parent   uint64
	req      uint64
	start    time.Time
	lastRead time.Time
}

func (c *legConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.open && c.replied {
		c.closeExchange()
	}
	if !c.open {
		c.open, c.replied, c.start = true, false, time.Now()
		c.id = c.leg.rec.id()
		c.parent, c.req = 0, 0
		if c.cause != nil {
			c.parent, c.req = c.cause(c)
		}
	}
	c.mu.Unlock()
	c.leg.bytes.Add(int64(len(p)))
	c.leg.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *legConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		c.lastRead, c.replied = now, true
		c.mu.Unlock()
	}
	return n, err
}

func (c *legConn) Close() error {
	c.mu.Lock()
	c.closeExchange()
	c.mu.Unlock()
	return c.Conn.Close()
}

// closeExchange ends the open exchange at its last reply byte. An
// exchange that never got a reply is dropped. Caller holds c.mu.
func (c *legConn) closeExchange() {
	if !c.open {
		return
	}
	c.open = false
	if !c.replied {
		return
	}
	c.leg.mu.Lock()
	c.leg.durs = append(c.leg.durs, c.lastRead.Sub(c.start))
	c.leg.mu.Unlock()
	c.leg.rec.add(c.id, c.parent, c.leg.name, c.req, c.start, c.lastRead)
}
