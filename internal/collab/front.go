package collab

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/stats"
)

// The session wire grammar (see DESIGN.md §13). A connection's first
// line opens or re-attaches a session:
//
//	HELLO                      → OK <sid>               new session
//	                           → BUSY <retry-ms>        admission shed, connection closed
//	RESUME <sid> <client-seq>  → OK <sid> <acked-seq>   session re-attached
//	                           → ERR SESSION-EXPIRED <sid>
//	                           → BUSY <retry-ms>
//	anything else              → ERR ... session-only, connection closed
//
// Requests carry a client-chosen monotone sequence number:
//
//	<seq> INS <pos> <quoted-text> | <seq> DEL <pos> <n> | <seq> GET |
//	<seq> BYE | <seq> USE <name>  | <seq> LIST
//
// and replies echo it:
//
//	OK <seq> <payload>          applied (or replayed from the window)
//	ERR <seq> PROTOCOL <why>    request-level error; acked and replayable
//	ERR <seq> READONLY <why>    mutation refused: draining/degraded
//	BUSY <seq> <retry-ms>       shed by rate limit or an unreachable shard;
//	                            NOT acked — retry the same seq
//	GONE <seq>                  seq fell outside the replay window;
//	                            exactly-once lost, session unusable
type front struct {
	adm      Admission
	table    *sessionTable
	counters *stats.Counters
	draining atomic.Bool
}

func newFront(opts Options) *front {
	return &front{
		adm:      opts.Admission,
		table:    newSessionTable(opts.Admission, opts.Seed, opts.Counters, opts.Tracer),
		counters: opts.Counters,
	}
}

// sessionOutcome is one applied request, produced by the router's apply
// callback. payload renders the OK reply's argument: the post-merge
// document the shard returned, or router-side state for USE/LIST/BYE.
type sessionOutcome struct {
	status  string // "OK", or an "ERR <detail>" protocol error
	payload func() string
	mutated bool
	quit    bool
	shed    bool // could not be applied now (e.g. shard unreachable):
	//              reply BUSY, do NOT ack — the client retries the seq
}

// sessionHandler binds the front door to the router: apply executes a
// command (forwarding document ops to their shard, which merges them
// before it replies), onMutate accounts an applied edit. applyBatch, when
// set, handles a whole frame of already-admitted commands at once (the
// sharded router groups them into wire batches); it must return one
// outcome per command and, once an outcome sheds, shed every later one
// too — the front cannot ack past an unresolved sequence number.
type sessionHandler struct {
	apply      func(sess *Session, seq uint64, cmd string) sessionOutcome
	applyBatch func(sess *Session, seqs []uint64, cmds []string) []sessionOutcome
	onMutate   func()
}

// isHandshake reports whether a connection's first line opens or
// resumes a session.
func isHandshake(line string) bool {
	return line == "HELLO" || strings.HasPrefix(line, "RESUME ")
}

// isMutation classifies a command as document-mutating for the drain
// gate, retry identities and wire batching. Clamped no-op deletes still
// count: the gate prices the attempt, not the outcome.
func isMutation(cmd string) bool {
	return strings.HasPrefix(cmd, "INS ") || strings.HasPrefix(cmd, "DEL ")
}

// serve runs the session protocol on one connection, from the handshake
// line to detach. Transport-level endings leave the session resumable.
func (f *front) serve(socket net.Conn, r *bufio.Reader, first string, h sessionHandler) {
	sess, ok := f.handshake(socket, first)
	if !ok {
		return // shed or expired; reply already written, connection closes
	}
	defer func() {
		if sess.detachConn(socket, f.table.tick()) {
			f.counters.Inc("detached")
		}
	}()
	fr := shard.NewFrameReader(r)
	for {
		lines, line, isFrame, err := fr.Next()
		if err != nil {
			// Transport gone — or a damaged batch frame, which we treat
			// the same way: the client re-sends on a fresh connection and
			// the replay window deduplicates.
			return
		}
		if isFrame {
			f.counters.Inc("frames")
			if f.requestFrame(socket, sess, lines, h) {
				f.table.remove(sess)
				f.counters.Inc("closed")
				return
			}
			continue
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		seqStr, cmd, found := strings.Cut(line, " ")
		seq, perr := strconv.ParseUint(seqStr, 10, 64)
		if !found || perr != nil || seq == 0 {
			f.counters.Inc("bad_request")
			fmt.Fprintf(socket, "ERR 0 PROTOCOL numbered request expected, got %q\n", line)
			continue
		}
		if f.request(socket, sess, seq, cmd, h) {
			f.table.remove(sess)
			f.counters.Inc("closed")
			return
		}
	}
}

// handshake processes HELLO / RESUME and attaches the session.
func (f *front) handshake(socket net.Conn, first string) (*Session, bool) {
	switch {
	case first == "HELLO":
		sess, ok := f.table.hello()
		if !ok {
			f.counters.Inc("shed")
			fmt.Fprintf(socket, "BUSY %d\n", f.adm.retryMillis())
			return nil, false
		}
		f.counters.Inc("admitted")
		sess.attach(socket)
		fmt.Fprintf(socket, "OK %s\n", sess.id)
		return sess, true
	default: // "RESUME <sid> <client-seq>"
		fields := strings.Fields(first)
		if len(fields) != 3 {
			f.counters.Inc("bad_request")
			fmt.Fprintf(socket, "ERR 0 PROTOCOL usage: RESUME <sid> <seq>\n")
			return nil, false
		}
		sid := fields[1]
		sess, ok := f.table.resume(sid)
		if !ok {
			f.counters.Inc("expired_resume")
			fmt.Fprintf(socket, "ERR SESSION-EXPIRED %s\n", sid)
			return nil, false
		}
		f.counters.Inc("resumed")
		sess.attach(socket)
		fmt.Fprintf(socket, "OK %s %d\n", sess.id, sess.acked())
		return sess, true
	}
}

// request processes one numbered request under the session's processing
// lock: the seq check, the apply and the ack are atomic with respect to a
// racing resumed connection re-sending the same request, so every seq is
// applied exactly once no matter how many transports carried it. It
// reports whether the request ended the session.
func (f *front) request(socket net.Conn, sess *Session, seq uint64, cmd string, h sessionHandler) (quit bool) {
	tick := f.table.tick()
	sess.proc.Lock()
	defer sess.proc.Unlock()
	if !sess.current(socket) {
		// A resume stole the session while we queued for proc. The client
		// re-sends on the new transport; applying here would spend backend
		// work (and, sharded, forwarding retries) on a dead socket.
		f.counters.Inc("stale_conn")
		return false
	}

	switch last := sess.acked(); {
	case seq <= last:
		// At-least-once retry of an acked request: replay the recorded
		// reply, never re-apply.
		if reply, ok := sess.replay(seq); ok {
			f.counters.Inc("replayed")
			fmt.Fprintln(socket, reply)
		} else {
			f.counters.Inc("window_miss")
			fmt.Fprintf(socket, "GONE %d\n", seq)
		}
		return false
	case seq != last+1:
		f.counters.Inc("bad_request")
		fmt.Fprintf(socket, "ERR %d PROTOCOL sequence gap (want %d)\n", seq, last+1)
		return false
	}

	if isMutation(cmd) && f.draining.Load() {
		// Graceful degradation: reads flow, mutations get a typed reason.
		f.counters.Inc("readonly_refused")
		reply := fmt.Sprintf("ERR %d READONLY draining", seq)
		sess.ack(seq, reply, f.adm.WindowSize)
		fmt.Fprintln(socket, reply)
		return false
	}
	if !sess.takeToken(tick, f.adm) {
		f.counters.Inc("busy_rate")
		fmt.Fprintf(socket, "BUSY %d %d\n", seq, f.adm.retryMillis())
		return false
	}

	out := h.apply(sess, seq, cmd)
	if out.shed {
		// The backend could not take the request (shard handoff or outage
		// in flight): shed without acking so the retry lands cleanly.
		f.counters.Inc("busy_route")
		fmt.Fprintf(socket, "BUSY %d %d\n", seq, f.adm.retryMillis())
		return false
	}
	if out.mutated {
		h.onMutate()
	}
	var reply string
	if out.status == "OK" {
		reply = fmt.Sprintf("OK %d %s", seq, out.payload())
	} else {
		reply = fmt.Sprintf("ERR %d PROTOCOL %s", seq, strings.TrimPrefix(out.status, "ERR "))
	}
	sess.ack(seq, reply, f.adm.WindowSize)
	fmt.Fprintln(socket, reply)
	return out.quit
}

// requestFrame processes one batch frame of numbered requests under the
// session's processing lock. Admission runs per request in frame order
// against a virtual acked frontier; every admitted command is applied
// (applyBatch groups them into one shard merge per run — the batching
// win), and acks are recorded strictly in sequence order. The invariant that makes this safe is the
// same one request() keeps: a seq is acked only when every earlier seq
// is acked, so once one request is shed (BUSY) or refused without an
// ack, everything after it in the frame is shed too — even if a backend
// already applied it, the retry resolves by replay.
func (f *front) requestFrame(socket net.Conn, sess *Session, frame []string, h sessionHandler) (quit bool) {
	sess.proc.Lock()
	defer sess.proc.Unlock()
	if !sess.current(socket) {
		// Same stale-attachment bailout as request(): under chaos, resumed
		// clients can queue dozens of dead connections on proc; each must
		// release it immediately or the live connection starves behind
		// forwarding retries done on behalf of sockets nobody reads.
		f.counters.Inc("stale_conn")
		return false
	}

	type item struct {
		seq     uint64
		reply   string // early reply; "" while the outcome is pending
		ackable bool   // early reply that acks (READONLY refusal)
		applyAt int    // index into cmds, or -1
	}
	items := make([]item, 0, len(frame))
	var seqs []uint64
	var cmds []string
	frontier := sess.acked()
	blocked := false // a non-acking refusal poisons the rest of the frame

	for _, line := range frame {
		tick := f.table.tick()
		seqStr, cmd, found := strings.Cut(line, " ")
		seq, perr := strconv.ParseUint(seqStr, 10, 64)
		if !found || perr != nil || seq == 0 {
			f.counters.Inc("bad_request")
			items = append(items, item{reply: fmt.Sprintf("ERR 0 PROTOCOL numbered request expected, got %q", line), applyAt: -1})
			continue
		}
		it := item{seq: seq, applyAt: -1}
		switch {
		case seq <= sess.acked():
			if reply, ok := sess.replay(seq); ok {
				f.counters.Inc("replayed")
				it.reply = reply
			} else {
				f.counters.Inc("window_miss")
				it.reply = fmt.Sprintf("GONE %d", seq)
			}
		case blocked:
			it.reply = fmt.Sprintf("BUSY %d %d", seq, f.adm.retryMillis())
		case seq != frontier+1:
			f.counters.Inc("bad_request")
			it.reply = fmt.Sprintf("ERR %d PROTOCOL sequence gap (want %d)", seq, frontier+1)
		case isMutation(cmd) && f.draining.Load():
			f.counters.Inc("readonly_refused")
			it.reply = fmt.Sprintf("ERR %d READONLY draining", seq)
			it.ackable = true
			frontier++
		case !sess.takeToken(tick, f.adm):
			f.counters.Inc("busy_rate")
			it.reply = fmt.Sprintf("BUSY %d %d", seq, f.adm.retryMillis())
			blocked = true
		default:
			it.applyAt = len(cmds)
			seqs = append(seqs, seq)
			cmds = append(cmds, cmd)
			frontier++
		}
		items = append(items, it)
	}

	var outs []sessionOutcome
	if len(cmds) > 0 {
		if h.applyBatch != nil {
			outs = h.applyBatch(sess, seqs, cmds)
		} else {
			outs = make([]sessionOutcome, len(cmds))
			for i := range cmds {
				outs[i] = h.apply(sess, seqs[i], cmds[i])
			}
		}
		for _, out := range outs {
			if !out.shed && out.mutated {
				h.onMutate()
			}
		}
	}

	// Finalize in frame order: payloads render post-merge, acks advance
	// the real frontier sequentially, and the first shed converts every
	// later would-be ack into a BUSY (no gaps in the ack order).
	var buf []byte
	shed := false
	for _, it := range items {
		reply := it.reply
		switch {
		case it.applyAt >= 0:
			out := outs[it.applyAt]
			if shed || out.shed {
				shed = true
				f.counters.Inc("busy_route")
				reply = fmt.Sprintf("BUSY %d %d", it.seq, f.adm.retryMillis())
				break
			}
			if out.status == "OK" {
				reply = fmt.Sprintf("OK %d %s", it.seq, out.payload())
			} else {
				reply = fmt.Sprintf("ERR %d PROTOCOL %s", it.seq, strings.TrimPrefix(out.status, "ERR "))
			}
			sess.ack(it.seq, reply, f.adm.WindowSize)
			if out.quit {
				quit = true
			}
		case it.ackable:
			if shed {
				reply = fmt.Sprintf("BUSY %d %d", it.seq, f.adm.retryMillis())
				break
			}
			sess.ack(it.seq, reply, f.adm.WindowSize)
		}
		buf = append(buf, reply...)
		buf = append(buf, '\n')
	}
	socket.Write(buf)
	return quit
}

// drain flips the server read-only: GETs are served, mutations refused
// with a typed READONLY reason.
func (f *front) drain() { f.draining.Store(true) }

// undrain restores full service.
func (f *front) undrain() { f.draining.Store(false) }

// shutdown flushes every live session (closing attached transports so
// connection tasks complete). Called by the accept task on its way out.
func (f *front) shutdown() { f.table.flush() }
