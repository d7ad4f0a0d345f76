package collab

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Default bounds for the session layer. See Admission for the knobs.
const (
	defaultWindow    = 8
	defaultIdleTicks = 1 << 20
)

// ackedReply is one entry of a session's bounded replay window: the
// verbatim reply line the server acked for a sequence number. A
// reconnecting client that re-sends an already-acked request gets the
// recorded line back without re-applying the edit — the dedup half of
// exactly-once on top of at-least-once retries.
type ackedReply struct {
	seq  uint64
	line string
}

// Session is the server-side identity that outlives any one TCP stream: a
// server-issued id, the monotone sequence number of the last acked
// request, a bounded replay window of acked replies, a token bucket for
// per-session rate limiting, and the logical-clock bookkeeping that
// drives deterministic idle eviction.
//
// Two locks with distinct jobs: proc serializes request *processing*
// across attachments (a resumed connection re-sending an in-flight
// request must observe the old attachment's apply-or-not atomically), mu
// guards field access and is never held across a merge.
type Session struct {
	id string

	// proc serializes the check-seq → apply → sync → record-ack critical
	// section. It is held across Sync, so never acquire it while holding
	// mu or the table lock.
	proc sync.Mutex

	mu       sync.Mutex
	attached net.Conn // current transport, nil while detached
	gone     bool     // evicted or closed; terminal

	lastAcked uint64
	window    []ackedReply

	// docIdx is the session's USE selection (-1 before the first USE). It
	// survives reconnects because it lives here, not on the connection.
	docIdx int

	detached   bool
	detachedAt uint64 // logical tick of the detach

	tokens     int64
	lastRefill uint64
}

// ID returns the server-issued session id.
func (s *Session) ID() string { return s.id }

// getDocIdx returns the session's multi-document USE selection (-1 when
// none).
func (s *Session) getDocIdx() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docIdx
}

// setDocIdx records the session's multi-document USE selection.
func (s *Session) setDocIdx(idx int) {
	s.mu.Lock()
	s.docIdx = idx
	s.mu.Unlock()
}

// attach binds the session to a transport, stealing it from any previous
// attachment (the old socket is closed so its connection task winds
// down; detach is identity-checked so the loser cannot clobber us).
func (s *Session) attach(c net.Conn) {
	s.mu.Lock()
	old := s.attached
	s.attached = c
	s.detached = false
	s.mu.Unlock()
	if old != nil && old != c {
		old.Close()
	}
}

// current reports whether c is still the session's attachment. A serve
// loop that lost a resume race checks this after acquiring proc: its
// pending requests will be re-sent on the new transport, so processing
// them here would only burn backend work on a dead socket.
func (s *Session) current(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached == c
}

// detach marks the session detached at the given logical tick — but only
// if conn is still the current attachment (a resume may have stolen it).
// Returns whether this call performed the detach.
func (s *Session) detachConn(c net.Conn, tick uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attached != c {
		return false
	}
	s.attached = nil
	s.detached = true
	s.detachedAt = tick
	return true
}

// ack records seq's reply line in the bounded replay window and advances
// the acked frontier.
func (s *Session) ack(seq uint64, line string, window int) {
	if window <= 0 {
		window = defaultWindow
	}
	s.mu.Lock()
	s.lastAcked = seq
	s.window = append(s.window, ackedReply{seq: seq, line: line})
	if n := len(s.window) - window; n > 0 {
		s.window = append(s.window[:0], s.window[n:]...)
	}
	s.mu.Unlock()
}

// replay looks an already-acked seq up in the window.
func (s *Session) replay(seq uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.window {
		if r.seq == seq {
			return r.line, true
		}
	}
	return "", false
}

// acked returns the acked frontier.
func (s *Session) acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAcked
}

// takeToken draws one request token from the session's bucket, refilled
// by the logical clock (adm.RateEvery ticks per token, capacity
// adm.RateBurst). A zero burst disables rate limiting.
func (s *Session) takeToken(tick uint64, adm Admission) bool {
	if adm.RateBurst <= 0 {
		return true
	}
	every := uint64(adm.RateEvery)
	if every == 0 {
		every = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tick > s.lastRefill {
		refill := int64((tick - s.lastRefill) / every)
		if refill > 0 {
			s.tokens += refill
			if s.tokens > int64(adm.RateBurst) {
				s.tokens = int64(adm.RateBurst)
			}
			s.lastRefill += uint64(refill) * every
		}
	}
	if s.tokens <= 0 {
		return false
	}
	s.tokens--
	return true
}

// sessionTable owns every live session of one server: issuance, resume
// lookup, and eviction. Time is a logical clock — one tick per processed
// session request — so eviction decisions are a pure function of (seed,
// session id, request ordering) and never of wall time: a replayed run
// evicts at the same points.
type sessionTable struct {
	adm      Admission
	seed     int64
	counters *stats.Counters
	tracer   *obs.Tracer

	mu       sync.Mutex
	nextID   int64
	clock    uint64
	sessions map[string]*Session
}

func newSessionTable(adm Admission, seed int64, counters *stats.Counters, tracer *obs.Tracer) *sessionTable {
	return &sessionTable{
		adm:      adm,
		seed:     seed,
		counters: counters,
		tracer:   tracer,
		sessions: make(map[string]*Session),
	}
}

// tick advances the logical clock by one request and sweeps expired
// detached sessions.
func (t *sessionTable) tick() uint64 {
	t.mu.Lock()
	t.clock++
	c := t.clock
	t.sweepLocked()
	t.mu.Unlock()
	return c
}

// idleLimit is the detach-to-eviction budget for a session: the base
// idle-tick allowance plus a seeded per-session jitter, so evictions
// spread deterministically instead of stampeding on one tick.
func (t *sessionTable) idleLimit(id string) uint64 {
	lim := t.adm.IdleTicks
	if lim == 0 {
		lim = defaultIdleTicks
	}
	if t.adm.IdleJitter > 0 {
		h := uint64(t.seed) ^ 0xcbf29ce484222325
		for i := 0; i < len(id); i++ {
			h = (h ^ uint64(id[i])) * 0x100000001b3
		}
		lim += h % t.adm.IdleJitter
	}
	return lim
}

// sweepLocked evicts every detached session whose idle budget is spent.
func (t *sessionTable) sweepLocked() {
	for id, s := range t.sessions {
		s.mu.Lock()
		expired := s.detached && t.clock-s.detachedAt > t.idleLimit(id)
		if expired {
			s.gone = true
		}
		s.mu.Unlock()
		if expired {
			delete(t.sessions, id)
			t.counters.Inc("evicted")
			if t.tracer != nil {
				t.tracer.Emit("collab.session", obs.KindSession, "evict:"+id, -1, 0, 0)
			}
		}
	}
}

// hello issues a fresh session, or refuses when the live-session gate is
// full (after sweeping expired sessions for free slots).
func (t *sessionTable) hello() (*Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	if t.adm.MaxSessions > 0 && len(t.sessions) >= t.adm.MaxSessions {
		return nil, false
	}
	t.nextID++
	id := fmt.Sprintf("s%d", t.nextID)
	s := &Session{id: id, docIdx: -1, tokens: int64(t.adm.RateBurst), lastRefill: t.clock}
	t.sessions[id] = s
	if t.tracer != nil {
		t.tracer.Emit("collab.session", obs.KindSession, "hello:"+id, -1, 0, 0)
	}
	return s, true
}

// resume looks a session up for re-attachment. A session that is gone,
// unknown, or past its idle budget (evicted on the spot) cannot be
// resumed.
func (t *sessionTable) resume(id string) (*Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[id]
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	expired := s.gone || (s.detached && t.clock-s.detachedAt > t.idleLimit(id))
	if expired {
		s.gone = true
	}
	s.mu.Unlock()
	if expired {
		delete(t.sessions, id)
		t.counters.Inc("evicted")
		if t.tracer != nil {
			t.tracer.Emit("collab.session", obs.KindSession, "evict:"+id, -1, 0, 0)
		}
		return nil, false
	}
	if t.tracer != nil {
		t.tracer.Emit("collab.session", obs.KindSession, "resume:"+id, -1, 0, 0)
	}
	return s, true
}

// remove closes a session for good (BYE or shutdown flush).
func (t *sessionTable) remove(s *Session) {
	s.mu.Lock()
	s.gone = true
	s.mu.Unlock()
	t.mu.Lock()
	delete(t.sessions, s.id)
	t.mu.Unlock()
}

// live returns the number of live sessions.
func (t *sessionTable) live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// flush closes every live session and its attached transport — the
// graceful-shutdown path: acked edits are already merged (the server
// syncs before acking), so closing the transports lets every connection
// task complete and the accept task exit with nothing pending.
func (t *sessionTable) flush() {
	t.mu.Lock()
	var conns []net.Conn
	for id, s := range t.sessions {
		s.mu.Lock()
		s.gone = true
		if s.attached != nil {
			conns = append(conns, s.attached)
			s.attached = nil
		}
		s.mu.Unlock()
		delete(t.sessions, id)
		t.counters.Inc("flushed")
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
