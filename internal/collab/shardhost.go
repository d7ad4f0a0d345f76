package collab

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/task"
)

// The internal shard protocol, spoken between the sharded router and a
// shard host over memnet/faultnet. Frames batch APPLY lines; replies are
// one line per request, in request order:
//
//	SHELLO <epoch>                    → OK <epoch> | STALE <host-epoch>
//	APPLY <rid> <epoch> <doc> <cmd>   → OK <rid> <quoted-doc>
//	                                  → ERR <rid> <detail>     resolved; never applied
//	                                  → STALE <rid> <host-epoch>  epoch fence
//	                                  → MOVED <rid>            doc not owned here
//
// rid is the router-assigned retry identity <router>.<session>.<seq>:
// at-least-once delivery from the router collapses to exactly-once because
// a shard keeps, per <router>.<session> prefix, the highest seq it applied
// (durably, when journaled) and answers any seq at or below that watermark
// by replay. One number per session is enough because the front forwards a
// session's seq s+1 only after s resolved (see front.request and
// requestFrame: both hold sess.proc and shed everything after the first
// shed) — when a shard sees (S, s) fresh, every (S, s' < s) is final on
// every shard. GETs carry rid "-": they are idempotent and skip the table.
//
// Each host is its own task tree — the per-shard single-writer merge
// loop. Router pipes become connection tasks whose local copies are
// OT-merged by the root, so concurrent pipes interleave exactly like
// concurrent clients on the unsharded server.

// splitRID parses a retry identity into its session prefix and seq.
func splitRID(rid string) (prefix string, seq uint64, ok bool) {
	i := strings.LastIndexByte(rid, '.')
	if i <= 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(rid[i+1:], 10, 64)
	return rid[:i], seq, err == nil && seq > 0
}

// mergeMarks folds the watermarks in src into dst, keeping the higher seq.
func mergeMarks(dst, src map[string]uint64) {
	for prefix, seq := range src {
		if seq > dst[prefix] {
			dst[prefix] = seq
		}
	}
}

// shardHostConfig carries the shared plumbing a ShardedServer hands each
// incarnation.
type shardHostConfig struct {
	counters *stats.Counters
	tracer   *obs.Tracer
	hist     *stats.Histogram // merge latency across all shards
	fence    bool             // epoch fence; false plants the stale-owner bug
	log      *shard.OpLog     // nil: no durability
}

// shardHost is one incarnation of one shard: a task-tree server over the
// shard's document subset at a single fence epoch. Handoffs and resumes
// build new incarnations; an incarnation's documents are readable only
// after wait().
type shardHost struct {
	id        int
	epoch     atomic.Uint64
	names     []string // owned docs, sorted
	docs      []*mergeable.Text
	edits     *mergeable.Counter
	editsBase int64
	ln        Listener
	cfg       shardHostConfig

	mu sync.Mutex
	// marks is the exactly-once state: rid prefix → highest applied seq.
	// inflight holds the rids claimed by a batch still on its way through
	// apply-sync-flush, each mapped to that batch's done channel; an entry
	// lives only from claim to settle.
	marks    map[string]uint64
	inflight map[string]chan struct{}
	conns    map[net.Conn]struct{}
	killed   bool

	// retained carries ShardState read-outs to the root task, the only
	// goroutine that may look at the root documents' logs.
	retained chan chan int

	done chan struct{}
	err  error
}

// startShardHost boots an incarnation over the given contents. marks seeds
// the session watermarks with what earlier incarnations applied (handoff
// transfer or oplog replay). When cfg.log is set, the incarnation's
// snapshot frame is written before it serves, so a later replay starts
// from this state; its records are sorted, so equal state writes equal
// bytes.
func startShardHost(id int, epoch uint64, contents map[string]string, marks map[string]uint64, editsBase int64, ln Listener, cfg shardHostConfig) (*shardHost, error) {
	names := make([]string, 0, len(contents))
	for name := range contents {
		names = append(names, name)
	}
	sort.Strings(names)
	h := &shardHost{
		id:        id,
		names:     names,
		edits:     mergeable.NewCounter(0),
		editsBase: editsBase,
		ln:        ln,
		cfg:       cfg,
		marks:     make(map[string]uint64, len(marks)),
		inflight:  make(map[string]chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		retained:  make(chan chan int, 1),
		done:      make(chan struct{}),
	}
	h.epoch.Store(epoch)
	mergeMarks(h.marks, marks)
	data := make([]mergeable.Mergeable, 0, len(names)+1)
	for _, name := range names {
		doc := mergeable.NewText(contents[name])
		h.docs = append(h.docs, doc)
		data = append(data, doc)
	}
	data = append(data, h.edits)

	if cfg.log != nil {
		snap := make([]string, 0, len(names)+len(marks)+2)
		snap = append(snap, fmt.Sprintf("E %d", epoch), fmt.Sprintf("B %d", editsBase))
		for _, name := range names {
			snap = append(snap, fmt.Sprintf("S %s %s", name, strconv.Quote(contents[name])))
		}
		for prefix, seq := range marks {
			snap = append(snap, fmt.Sprintf("W %s %d", prefix, seq))
		}
		sort.Strings(snap[2+len(names):])
		if err := cfg.log.Append(snap); err != nil {
			return nil, err
		}
		if err := cfg.log.Flush(); err != nil {
			return nil, err
		}
	}

	go func() {
		defer close(h.done)
		h.err = task.RunWith(task.RunConfig{Obs: cfg.tracer}, func(ctx *task.Ctx, d []mergeable.Mergeable) error {
			// The acceptor never syncs, so it must not hold fresh copies: a
			// spawned acceptor would pin version 0 of every document for the
			// life of the incarnation. As a clone it pins nothing, and the
			// root's logs trim behind the connection tasks after every merge.
			ctx.Spawn(func(ctx *task.Ctx, _ []mergeable.Mergeable) error {
				ctx.Clone(h.acceptTask)
				return nil
			}, d...)
			for {
				if _, err := ctx.MergeAny(); errors.Is(err, task.ErrNothingToMerge) {
					return nil
				}
				select {
				case reply := <-h.retained:
					n := 0
					for _, m := range d {
						n += m.Log().RetainedLen()
					}
					reply <- n
				default:
				}
			}
		}, data...)
	}()
	return h, nil
}

func (h *shardHost) acceptTask(ctx *task.Ctx, data []mergeable.Mergeable) error {
	for {
		socket, err := h.ln.Accept()
		if err != nil {
			return nil
		}
		h.mu.Lock()
		if h.killed {
			h.mu.Unlock()
			socket.Close()
			continue
		}
		h.conns[socket] = struct{}{}
		h.mu.Unlock()
		ctx.Clone(h.connTask(socket))
	}
}

func (h *shardHost) dropConn(socket net.Conn) {
	h.mu.Lock()
	delete(h.conns, socket)
	h.mu.Unlock()
}

func (h *shardHost) connTask(socket net.Conn) task.Func {
	return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		defer socket.Close()
		defer h.dropConn(socket)
		if err := ctx.Sync(); err != nil {
			return err
		}
		r := bufio.NewReader(socket)
		fr := shard.NewFrameReader(r)

		// Handshake: a single SHELLO line carrying the dialer's epoch.
		_, first, isFrame, err := fr.Next()
		if err != nil || isFrame {
			return nil
		}
		eStr, ok := strings.CutPrefix(first, "SHELLO ")
		if !ok {
			fmt.Fprintf(socket, "ERR - bad handshake %q\n", first)
			return nil
		}
		dialEpoch, perr := strconv.ParseUint(strings.TrimSpace(eStr), 10, 64)
		if own := h.epoch.Load(); perr != nil || (h.cfg.fence && dialEpoch != own) {
			h.cfg.counters.Inc("shard_stale_hello")
			fmt.Fprintf(socket, "STALE %d\n", own)
			return nil
		}
		fmt.Fprintf(socket, "OK %d\n", h.epoch.Load())

		for {
			lines, legacy, isFrame, err := fr.Next()
			if err != nil {
				return nil // transport gone or damaged frame: router re-sends
			}
			if !isFrame {
				lines = []string{legacy}
			} else {
				h.cfg.counters.Inc("shard_frames")
			}
			if err := h.processBatch(ctx, socket, data, lines); err != nil {
				return err
			}
		}
	}
}

// hostReq is one APPLY of a batch on its way through the pipeline.
type hostReq struct {
	rid     string
	docIdx  int
	cmd     string
	reply   string // fixed early reply (parse error / STALE / MOVED / replay)
	apply   bool
	mutated bool
	prefix  string // rid's session prefix and seq, parsed for mutations
	seq     uint64
	claimed bool // rid is in h.inflight on behalf of this batch
}

// processBatch runs one frame (or bare line) of APPLYs through the
// single-writer pipeline: fence, rid claim, apply to the connection
// task's copies, one merge for the whole batch, one oplog flush before
// any ack (flush-on-sync), then replies in request order. A failed
// merge propagates; a durability failure kills the incarnation (its
// applied-but-unlogged state must never be acked or re-reached) and the
// router sheds its documents until a resume.
func (h *shardHost) processBatch(ctx *task.Ctx, socket net.Conn, data []mergeable.Mergeable, lines []string) error {
	reqs := make([]hostReq, len(lines))
	edits := data[len(h.names)].(*mergeable.Counter)
	needSync := false
	var done chan struct{} // closed when this batch's claims settle

	for i, line := range lines {
		req := &reqs[i]
		fields := strings.SplitN(line, " ", 5)
		if len(fields) < 5 || fields[0] != "APPLY" {
			req.rid, req.reply = "-", fmt.Sprintf("ERR - bad request %q", line)
			continue
		}
		req.rid, req.cmd = fields[1], fields[4]
		epoch, perr := strconv.ParseUint(fields[2], 10, 64)
		if perr != nil {
			req.reply = fmt.Sprintf("ERR %s bad epoch", req.rid)
			continue
		}
		if own := h.epoch.Load(); h.cfg.fence && epoch != own {
			h.cfg.counters.Inc("shard_stale_apply")
			req.reply = fmt.Sprintf("STALE %s %d", req.rid, own)
			continue
		}
		req.docIdx = h.docIndex(fields[3])
		if req.docIdx < 0 {
			h.cfg.counters.Inc("shard_moved")
			req.reply = fmt.Sprintf("MOVED %s", req.rid)
			continue
		}
		if !isMutation(req.cmd) {
			req.apply = true // idempotent read: no claim
			needSync = true
			continue
		}
		var ok bool
		if req.prefix, req.seq, ok = splitRID(req.rid); !ok {
			req.reply = fmt.Sprintf("ERR %s bad rid", req.rid)
			continue
		}
		if done == nil {
			done = make(chan struct{})
		}
		switch fresh, replay := h.claim(req, done); {
		case fresh:
			req.claimed, req.apply, needSync = true, true, true
		case replay:
			h.cfg.counters.Inc("shard_replayed")
			doc := data[req.docIdx].(*mergeable.Text)
			req.reply = fmt.Sprintf("OK %s %s", req.rid, strconv.Quote(doc.String()))
		default:
			req.reply = fmt.Sprintf("ERR %s duplicate rid in batch", req.rid)
		}
	}

	// Apply phase: every fresh op lands on this task's local copies.
	var records []string
	for i := range reqs {
		req := &reqs[i]
		if !req.apply {
			continue
		}
		doc := data[req.docIdx].(*mergeable.Text)
		status, mutated, _ := applyRequest(doc, req.cmd)
		req.mutated = mutated
		if strings.HasPrefix(status, "ERR") {
			// Never applied: settle releases this rid without raising the
			// watermark, so a corrected retry can land.
			req.apply = false
			req.reply = fmt.Sprintf("ERR %s %s", req.rid, strings.TrimPrefix(status, "ERR "))
			continue
		}
		if mutated {
			edits.Inc()
			records = append(records, fmt.Sprintf("A %s %s %s", req.rid, h.names[req.docIdx], req.cmd))
		}
	}

	if needSync {
		start := time.Now()
		if err := ctx.Sync(); err != nil {
			h.settle(reqs, done, false)
			fmt.Fprintf(socket, "ERR - INTERNAL %v\n", err)
			return err
		}
		h.cfg.hist.RecordDuration(time.Since(start))
	}

	// Durability before acks: the flush-on-sync rule. Any failure here
	// kills the incarnation: the batch is already applied and merged, so
	// if this incarnation kept serving, a router retry of the released
	// rids would apply them a second time. Killing closes the listener,
	// every pipe and the log, so no retry can reach this memory again —
	// the journal (which never saw these records) is the incarnation's
	// only legacy, exactly as after a SIGKILL. When the log is closed
	// because kill() already ran, this is a no-op beyond ending the task.
	if len(records) > 0 && h.cfg.log != nil {
		err := h.cfg.log.Append(records)
		if err == nil {
			err = h.cfg.log.Flush()
		}
		if err != nil {
			h.settle(reqs, done, false)
			h.kill()
			return err
		}
	}

	// Resolve claims, then ack everything in request order.
	h.settle(reqs, done, true)
	var out []byte
	for i := range reqs {
		req := &reqs[i]
		if req.reply == "" {
			doc := data[req.docIdx].(*mergeable.Text)
			req.reply = fmt.Sprintf("OK %s %s", req.rid, strconv.Quote(doc.String()))
		}
		out = append(out, req.reply...)
		out = append(out, '\n')
	}
	socket.Write(out)
	return nil
}

// claim judges one mutation's rid: fresh hands it to the calling batch
// until settle; replay means its seq is at or below the session's
// watermark — answer, never re-apply; neither means the batch itself
// claimed it earlier. A rid mid-flight in another connection's batch
// blocks until that batch settles, then is judged again.
func (h *shardHost) claim(req *hostReq, done chan struct{}) (fresh, replay bool) {
	for {
		h.mu.Lock()
		owner, busy := h.inflight[req.rid]
		replay = req.seq <= h.marks[req.prefix]
		if fresh = !replay && !busy; fresh {
			h.inflight[req.rid] = done
		}
		h.mu.Unlock()
		if fresh || replay || owner == done {
			return fresh, replay
		}
		<-owner
	}
}

// settle ends a batch's claims and wakes whoever waits on them. With
// resolved set, every applied claim raises its session's watermark;
// released claims leave it alone, so the router's retry lands fresh.
func (h *shardHost) settle(reqs []hostReq, done chan struct{}, resolved bool) {
	if done == nil {
		return
	}
	h.mu.Lock()
	for i := range reqs {
		req := &reqs[i]
		if !req.claimed {
			continue
		}
		req.claimed = false
		delete(h.inflight, req.rid)
		if cur, known := h.marks[req.prefix]; resolved && req.apply && req.seq > cur {
			if !known {
				// The key outlives the batch, and the prefix is a slice of
				// a whole frame line.
				req.prefix = strings.Clone(req.prefix)
			}
			h.marks[req.prefix] = req.seq
		}
	}
	h.mu.Unlock()
	close(done)
}

func (h *shardHost) docIndex(name string) int {
	lo, hi := 0, len(h.names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.names) && h.names[lo] == name {
		return lo
	}
	return -1
}

// setEpoch bumps the fence in place — used when a rebalance leaves this
// shard's document set untouched, so no restart is needed.
func (h *shardHost) setEpoch(e uint64) { h.epoch.Store(e) }

// closeConns severs every live router pipe.
func (h *shardHost) closeConns() {
	h.mu.Lock()
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// shutdown drains the incarnation for handoff: the listener and pipes
// close, in-flight batches finish their apply-sync-record sequence, the
// task tree completes. After shutdown the documents are exact — every
// acked op is merged — and safe to snapshot-transfer.
func (h *shardHost) shutdown() error {
	h.ln.Close()
	h.closeConns()
	err := h.wait()
	if h.cfg.log != nil {
		h.cfg.log.Close()
	}
	return err
}

// kill is the simulated SIGKILL: the incarnation's sockets and oplog
// close immediately and nobody waits for the task tree. In-flight
// batches lose their replies; whatever reached the oplog before the
// close is the incarnation's legacy.
func (h *shardHost) kill() {
	h.mu.Lock()
	h.killed = true
	h.mu.Unlock()
	h.ln.Close()
	h.closeConns()
	if h.cfg.log != nil {
		h.cfg.log.Close()
	}
}

// wait blocks until the incarnation's task tree completes.
func (h *shardHost) wait() error {
	<-h.done
	return h.err
}

// contents reads the final documents. Valid only after wait().
func (h *shardHost) contents() map[string]string {
	m := make(map[string]string, len(h.names))
	for i, name := range h.names {
		m[name] = h.docs[i].String()
	}
	return m
}

// watermarks copies the session watermarks out for handoff. After wait()
// no claim is in flight, so they cover exactly the acked ops; claims that
// never settled were never acked.
func (h *shardHost) watermarks() map[string]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return maps.Clone(h.marks)
}

// finalEdits returns the incarnation's total applied-edit count. Valid
// after wait().
func (h *shardHost) finalEdits() int64 { return h.editsBase + h.edits.Value() }
