package collab

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/memnet"
	"repro/internal/mergeable"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ListenDialer is a transport endpoint usable from both sides: the shard
// host accepts on it, the router dials it. memnet and faultnet listeners
// both qualify, so the internal shard fabric runs hermetic or under
// chaos with the same code.
type ListenDialer interface {
	Listener
	Dialer
}

// ShardedOptions configures a sharded document service.
type ShardedOptions struct {
	// Front configures the public session front door (admission, seed,
	// counters, tracer) exactly as for ServeDocsWith.
	Front Options
	// Shards is the initial shard count (ids 0..Shards-1). Default 1.
	Shards int
	// Replicas is the virtual-point count per shard on the hash ring;
	// 0 means shard.DefaultReplicas.
	Replicas int
	// Pipes is the number of router→shard connections per shard. More
	// pipes mean more in-flight batches merging concurrently inside one
	// shard. Default 4.
	Pipes int
	// Dir, when set, enables per-shard crash recovery: each shard
	// incarnation journals to Dir/shard-NNNN/ops.log and KillShard /
	// ResumeShard become available.
	Dir string
	// ShardNet builds a fresh transport per shard incarnation (it is
	// called again after every handoff restart or resume). Default:
	// in-process memnet.
	ShardNet func(id int) ListenDialer
	// NoBatch disables router-side op batching: every forwarded op is
	// its own wire exchange and its own shard merge. The benchmarking
	// ablation for the batching win.
	NoBatch bool
	// PipeTimeout bounds each router→shard exchange; an expired pipe is
	// dropped and the op retried (under faultnet a partitioned write
	// would otherwise block forever). Default 2s.
	PipeTimeout time.Duration
	// RouterID prefixes retry identities so routers never collide.
	// Default "r0".
	RouterID string
	// UnsafeLiveHandoff plants the stale-owner bug for the schedule
	// explorer: handoffs snapshot documents from the still-running old
	// owner without an epoch fence, so a write racing the handoff lands
	// on the zombie copy and is silently lost. Never set outside tests.
	UnsafeLiveHandoff bool
}

func (o ShardedOptions) withDefaults() ShardedOptions {
	o.Front = o.Front.withDefaults()
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Pipes <= 0 {
		o.Pipes = 4
	}
	if o.PipeTimeout <= 0 {
		o.PipeTimeout = 2 * time.Second
	}
	if o.RouterID == "" {
		o.RouterID = "r0"
	}
	if o.ShardNet == nil {
		o.ShardNet = func(int) ListenDialer { return memnet.Listen(64) }
	}
	return o
}

// errMoved reports a shard that no longer owns the addressed document;
// the router refreshes its route and retries.
var errMoved = errors.New("collab: document moved off shard")

// ShardedServer is the routing front of the sharded document service:
// clients speak the ordinary session protocol to it, it maps each
// document onto its owning shard with a consistent-hash ring and
// forwards ops over the internal APPLY protocol, batching run-adjacent
// ops into CRC-framed wire batches. Each shard is an independent
// single-writer merge loop (a task tree of its own) with an optional
// per-shard journal; membership changes move documents between shards
// behind an epoch fence, and a SIGKILLed shard resumes from its journal
// without breaking exactly-once.
type ShardedServer struct {
	opts     ShardedOptions
	listener Listener
	names    []string // all documents, sorted
	front    *front
	counters *stats.Counters
	hist     *stats.Histogram

	mu      sync.RWMutex
	epoch   uint64
	ring    *shard.Ring
	route   []int32 // docIdx → owning shard id
	hosts   map[int]*shardHost
	pipes   map[int]*shardPipes
	killed  map[int]bool
	zombies []*shardHost // live-handoff leftovers (planted-bug mode)

	editsBanked int64 // edits of incarnations retired by handoffs

	connWG     sync.WaitGroup
	acceptDone chan struct{}
	closed     atomic.Bool

	finals     map[string]string
	finalEdits int64
}

// ServeSharded starts a sharded document service over the public
// listener. initial maps document names to initial contents; the
// document set is fixed for the server's lifetime, only ownership
// moves.
func ServeSharded(public Listener, initial map[string]string, opts ShardedOptions) (*ShardedServer, error) {
	opts = opts.withDefaults()
	names := make([]string, 0, len(initial))
	for name := range initial {
		if name == "" || strings.ContainsAny(name, " \n\r") {
			return nil, fmt.Errorf("collab: bad document name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	s := &ShardedServer{
		opts:       opts,
		listener:   public,
		names:      names,
		front:      newFront(opts.Front),
		counters:   opts.Front.Counters,
		hist:       stats.NewLatencyHistogram(),
		epoch:      1,
		hosts:      make(map[int]*shardHost),
		pipes:      make(map[int]*shardPipes),
		killed:     make(map[int]bool),
		acceptDone: make(chan struct{}),
	}
	ids := make([]int, opts.Shards)
	for i := range ids {
		ids[i] = i
	}
	s.ring = shard.New(ids, opts.Replicas, s.epoch)
	s.route = make([]int32, len(names))
	contents := make(map[int]map[string]string, len(ids))
	for _, id := range ids {
		contents[id] = make(map[string]string)
	}
	for i, name := range names {
		id := s.ring.Owner(name)
		s.route[i] = int32(id)
		contents[id][name] = initial[name]
	}
	for _, id := range ids {
		if err := s.startShard(id, s.epoch, contents[id], nil, 0); err != nil {
			s.teardown()
			return nil, err
		}
	}

	go func() {
		defer close(s.acceptDone)
		for {
			socket, err := s.listener.Accept()
			if err != nil {
				return
			}
			s.connWG.Add(1)
			go func() {
				defer s.connWG.Done()
				s.serveConn(socket)
			}()
		}
	}()
	return s, nil
}

// startShard boots one shard incarnation and its router pipes. Caller
// holds s.mu (or is in single-threaded construction).
func (s *ShardedServer) startShard(id int, epoch uint64, contents map[string]string, marks map[string]uint64, editsBase int64) error {
	cfg := shardHostConfig{
		counters: s.counters,
		tracer:   s.opts.Front.Tracer,
		hist:     s.hist,
		fence:    !s.opts.UnsafeLiveHandoff,
	}
	if s.opts.Dir != "" {
		dir, err := journal.ShardDir(s.opts.Dir, id)
		if err != nil {
			return err
		}
		log, err := shard.CreateOpLog(filepath.Join(dir, "ops.log"))
		if err != nil {
			return err
		}
		cfg.log = log
	}
	net := s.opts.ShardNet(id)
	h, err := startShardHost(id, epoch, contents, marks, editsBase, net, cfg)
	if err != nil {
		if cfg.log != nil {
			cfg.log.Close()
		}
		net.Close()
		return err
	}
	s.hosts[id] = h
	s.pipes[id] = newShardPipes(id, net, s.opts.Pipes, s.opts.PipeTimeout)
	return nil
}

// teardown kills everything during a failed construction.
func (s *ShardedServer) teardown() {
	for _, h := range s.hosts {
		h.kill()
	}
	for _, pp := range s.pipes {
		pp.closeAll()
	}
}

func (s *ShardedServer) serveConn(socket net.Conn) {
	defer socket.Close()
	r := bufio.NewReader(socket)
	first, err := r.ReadString('\n')
	if err != nil {
		return
	}
	first = strings.TrimSpace(first)
	if !isHandshake(first) {
		// The sharded front is session-only: exactly-once forwarding
		// leans on session retry identities, which legacy mode lacks.
		s.counters.Inc("legacy_refused")
		fmt.Fprintf(socket, "ERR sharded service is session-only; start with HELLO\n")
		return
	}
	h := sessionHandler{
		apply:    s.applySharded,
		sync:     func() error { return nil }, // merges happen shard-side
		onMutate: func() { s.counters.Inc("routed_edits") },
	}
	if !s.opts.NoBatch {
		h.applyBatch = s.applyShardedBatch
	}
	s.front.serve(socket, r, first, h)
}

// ridFor builds the retry identity for a session request. It is a pure
// function of (router, session, seq), so no matter how many times the
// client or the router retries, the shard sees one identity and applies
// once; shards parse it back with splitRID.
func (s *ShardedServer) ridFor(sess *Session, seq uint64) string {
	return s.opts.RouterID + "." + sess.ID() + "." + strconv.FormatUint(seq, 10)
}

// pipeIdxFor spreads sessions across a shard's pipe pool so the shard's
// OT merge loop sees genuinely concurrent edit streams.
func pipeIdxFor(sess *Session) int {
	id := sess.ID()
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 0x100000001b3
	}
	return int(h % (1 << 31))
}

// applySharded routes one session command. USE/LIST/BYE resolve at the
// router; document ops forward to the owning shard.
func (s *ShardedServer) applySharded(sess *Session, seq uint64, cmd string) sessionOutcome {
	if name, ok := strings.CutPrefix(cmd, "USE "); ok {
		idx := s.docIndexOf(strings.TrimSpace(name))
		if idx < 0 {
			return sessionOutcome{status: fmt.Sprintf("ERR no document %q", name), noSync: true}
		}
		sess.setDocIdx(idx)
		payload, err := s.forward(sess, "-", idx, "GET")
		if err != nil {
			return s.classifyForward(err)
		}
		return sessionOutcome{status: "OK", payload: func() string { return payload }, noSync: true}
	}
	if cmd == "LIST" {
		return sessionOutcome{
			status:  "OK",
			payload: func() string { return strconv.Quote(strings.Join(s.names, ",")) },
			noSync:  true,
		}
	}
	if cmd == "BYE" {
		return sessionOutcome{status: "OK", payload: func() string { return strconv.Quote("") }, quit: true, noSync: true}
	}
	idx := sess.getDocIdx()
	if idx < 0 {
		return sessionOutcome{status: "ERR select a document with USE first", noSync: true}
	}
	rid := "-"
	mutation := isMutation(cmd)
	if mutation {
		rid = s.ridFor(sess, seq)
	}
	payload, err := s.forwardOn(pipeIdxFor(sess), rid, idx, cmd)
	if err != nil {
		return s.classifyForward(err)
	}
	return sessionOutcome{status: "OK", payload: func() string { return payload }, mutated: mutation, noSync: true}
}

// applyShardedBatch routes a frame of admitted commands, grouping runs
// of document mutations bound for the same shard into one wire batch
// (one frame out, one shard merge, one journal flush). Non-mutations
// break runs and route singly. Once anything sheds, everything after it
// sheds too — see sessionHandler.
func (s *ShardedServer) applyShardedBatch(sess *Session, seqs []uint64, cmds []string) []sessionOutcome {
	outs := make([]sessionOutcome, len(cmds))
	shedFrom := func(i int) {
		for ; i < len(cmds); i++ {
			outs[i] = sessionOutcome{shed: true}
		}
	}
	i := 0
	for i < len(cmds) {
		if !isMutation(cmds[i]) {
			outs[i] = s.applySharded(sess, seqs[i], cmds[i])
			if outs[i].shed {
				shedFrom(i + 1)
				return outs
			}
			i++
			continue
		}
		idx := sess.getDocIdx()
		if idx < 0 {
			outs[i] = sessionOutcome{status: "ERR select a document with USE first", noSync: true}
			i++
			continue
		}
		j := i
		for j < len(cmds) && isMutation(cmds[j]) {
			j++
		}
		if !s.forwardRun(sess, seqs[i:j], cmds[i:j], idx, outs[i:j]) {
			shedFrom(j)
			return outs
		}
		i = j
	}
	return outs
}

// classifyForward turns a forwarding failure into a session outcome.
func (s *ShardedServer) classifyForward(err error) sessionOutcome {
	var applyErr *shardApplyError
	if errors.As(err, &applyErr) {
		return sessionOutcome{status: "ERR " + applyErr.detail, noSync: true}
	}
	return sessionOutcome{shed: true}
}

// shardApplyError is a resolved per-op refusal from a shard (bad
// position, bad literal, ...): the op was never applied and retrying the
// same bytes cannot help.
type shardApplyError struct{ detail string }

func (e *shardApplyError) Error() string { return "collab: shard: " + e.detail }

// forwardAttempts bounds the router's internal retry loop. When it runs
// out (shard killed and not yet resumed, say) the op is shed to the
// client, whose own retry loop carries the longer wait.
const forwardAttempts = 24

func (s *ShardedServer) forward(sess *Session, rid string, docIdx int, cmd string) (string, error) {
	return s.forwardOn(pipeIdxFor(sess), rid, docIdx, cmd)
}

// forwardOn drives one op to its owning shard: route lookup, pipe
// exchange, and the retry loop over transport failures, epoch fences and
// ownership moves. Returns the quoted post-merge document.
func (s *ShardedServer) forwardOn(pipeIdx int, rid string, docIdx int, cmd string) (string, error) {
	var lastErr error
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			s.backoff(attempt)
		}
		if s.closed.Load() {
			return "", net.ErrClosed
		}
		s.mu.RLock()
		epoch := s.epoch
		id := int(s.route[docIdx])
		pp := s.pipes[id]
		s.mu.RUnlock()
		if pp == nil {
			lastErr = net.ErrClosed
			continue
		}
		line := fmt.Sprintf("APPLY %s %d %s %s", rid, epoch, s.names[docIdx], cmd)
		replies, err := pp.exchange(pipeIdx, epoch, []string{line})
		if err != nil {
			lastErr = s.countForwardError(err)
			continue
		}
		payload, err := s.classifyReply(id, replies[0])
		if err != nil {
			var applyErr *shardApplyError
			if errors.As(err, &applyErr) {
				return "", err
			}
			lastErr = s.countForwardError(err)
			continue
		}
		s.counters.Inc("forwarded")
		return payload, nil
	}
	return "", lastErr
}

// forwardRun drives a run of mutations as one batch frame. Each op's
// outcome lands in outs; returns false when the run gave up (the
// unresolved tail is shed — callers shed the rest of their frame too).
// Re-sending a partially-applied frame is safe: applied rids answer by
// replay.
func (s *ShardedServer) forwardRun(sess *Session, seqs []uint64, cmds []string, docIdx int, outs []sessionOutcome) bool {
	pipeIdx := pipeIdxFor(sess)
	rids := make([]string, len(cmds))
	for i := range cmds {
		rids[i] = s.ridFor(sess, seqs[i])
	}
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			s.backoff(attempt)
		}
		if s.closed.Load() {
			break
		}
		s.mu.RLock()
		epoch := s.epoch
		id := int(s.route[docIdx])
		pp := s.pipes[id]
		s.mu.RUnlock()
		if pp == nil {
			continue
		}
		lines := make([]string, len(cmds))
		for i := range cmds {
			lines[i] = fmt.Sprintf("APPLY %s %d %s %s", rids[i], epoch, s.names[docIdx], cmds[i])
		}
		replies, err := pp.exchange(pipeIdx, epoch, lines)
		if err != nil {
			s.countForwardError(err)
			continue
		}
		retry := false
		for i, reply := range replies {
			payload, cerr := s.classifyReply(id, reply)
			if cerr == nil {
				payload := payload
				outs[i] = sessionOutcome{status: "OK", payload: func() string { return payload }, mutated: true, noSync: true}
				continue
			}
			var applyErr *shardApplyError
			if errors.As(cerr, &applyErr) {
				outs[i] = sessionOutcome{status: "ERR " + applyErr.detail, noSync: true}
				continue
			}
			s.countForwardError(cerr)
			retry = true
			break
		}
		if !retry {
			s.counters.Inc("forwarded_batches")
			return true
		}
	}
	for i := range outs {
		outs[i] = sessionOutcome{shed: true}
	}
	return false
}

// classifyReply parses one shard reply line. OK returns the quoted
// document payload; ERR resolves as shardApplyError; STALE and MOVED
// return retriable routing errors (STALE carries the dist epoch
// taxonomy, so callers classify with errors.Is(err, dist.ErrStaleEpoch)).
func (s *ShardedServer) classifyReply(shardID int, reply string) (string, error) {
	status, rest, _ := strings.Cut(reply, " ")
	switch status {
	case "OK":
		_, payload, ok := strings.Cut(rest, " ")
		if !ok {
			return "", &shardApplyError{detail: fmt.Sprintf("malformed shard reply %q", reply)}
		}
		return payload, nil
	case "ERR":
		_, detail, _ := strings.Cut(rest, " ")
		return "", &shardApplyError{detail: detail}
	case "STALE":
		_, epochStr, _ := strings.Cut(rest, " ")
		e, _ := strconv.ParseUint(epochStr, 10, 64)
		return "", dist.StaleEpochError{Node: shardID, Epoch: e}
	case "MOVED":
		return "", errMoved
	default:
		return "", &shardApplyError{detail: fmt.Sprintf("malformed shard reply %q", reply)}
	}
}

// countForwardError accounts a retriable forwarding failure.
func (s *ShardedServer) countForwardError(err error) error {
	switch {
	case errors.Is(err, dist.ErrStaleEpoch):
		s.counters.Inc("route_stale")
	case errors.Is(err, errMoved):
		s.counters.Inc("route_moved")
	default:
		s.counters.Inc("pipe_errors")
	}
	return err
}

// backoff paces the forwarding retry loop: immediate for the first few
// attempts (fence races resolve as soon as the rebalance lock drops),
// then up to 10ms.
func (s *ShardedServer) backoff(attempt int) {
	if attempt < 3 {
		return
	}
	d := time.Duration(attempt-2) * time.Millisecond
	if d > 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	time.Sleep(d)
}

func (s *ShardedServer) docIndexOf(name string) int {
	lo, hi := 0, len(s.names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.names) && s.names[lo] == name {
		return lo
	}
	return -1
}

// RouteOf returns the shard currently owning doc (-1 when unknown). The
// steady-state lookup is allocation-free.
func (s *ShardedServer) RouteOf(doc string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.docIndexOf(doc)
	if idx < 0 {
		return -1
	}
	return int(s.route[idx])
}

// Epoch returns the current fence epoch.
func (s *ShardedServer) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// ShardIDs returns the current ring membership.
func (s *ShardedServer) ShardIDs() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.IDs()
}

// AddShard joins a new shard id and rebalances documents onto it.
func (s *ShardedServer) AddShard(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring.Contains(id) {
		return fmt.Errorf("collab: shard %d already in the ring", id)
	}
	return s.rebalanceLocked(append(s.ring.IDs(), id))
}

// DrainShard removes a shard id from the ring, handing its documents to
// the survivors.
func (s *ShardedServer) DrainShard(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ring.Contains(id) {
		return fmt.Errorf("collab: shard %d not in the ring", id)
	}
	if s.ring.Len() == 1 {
		return fmt.Errorf("collab: cannot drain the last shard")
	}
	ids := make([]int, 0, s.ring.Len()-1)
	for _, m := range s.ring.IDs() {
		if m != id {
			ids = append(ids, m)
		}
	}
	return s.rebalanceLocked(ids)
}

// rebalanceLocked moves document ownership to a new ring at epoch+1.
//
// The safe path is a fence handoff: every shard whose document set
// changes is drained (listener and pipes closed, in-flight batches
// finish, task tree completes), its exact documents, session watermarks
// and edit count are collected, and fresh incarnations start at the new
// epoch, each seeded with the max-merge of every retired incarnation's
// watermarks (a watermark says "final everywhere up to here", so it is
// valid on whichever shard the session's documents land). Unaffected
// shards take the new epoch in place. Any op still in flight against an
// old incarnation either completed before the drain (and is covered by
// the transferred watermark) or sees a dead pipe / STALE fence and
// retries against the new route — exactly once either way.
//
// With UnsafeLiveHandoff the fence is off and sources are left running
// while their documents are copied with live GETs — the planted
// lost-update bug the schedule explorer is expected to catch.
func (s *ShardedServer) rebalanceLocked(ids []int) error {
	if s.closed.Load() {
		return net.ErrClosed
	}
	if len(s.killed) > 0 {
		return fmt.Errorf("collab: rebalance with killed shards: resume them first")
	}
	newEpoch := s.epoch + 1
	newRing := shard.New(ids, s.opts.Replicas, newEpoch)
	newRoute := make([]int32, len(s.names))
	affected := make(map[int]bool)
	for i, name := range s.names {
		newRoute[i] = int32(newRing.Owner(name))
		if newRoute[i] != s.route[i] {
			affected[int(s.route[i])] = true
			affected[int(newRoute[i])] = true
		}
	}
	for id := range s.hosts {
		if !newRing.Contains(id) {
			affected[id] = true // leaving the ring: retire even if empty
		}
	}
	for _, id := range ids {
		if _, ok := s.hosts[id]; !ok {
			affected[id] = true // joining: must be started
		}
	}
	order := make([]int, 0, len(affected))
	for id := range affected {
		order = append(order, id)
	}
	sort.Ints(order)

	contents := make(map[string]string)
	marks := make(map[string]uint64) // max over all retired incarnations
	if s.opts.UnsafeLiveHandoff {
		// BUG (planted): snapshot moved documents from their still-running
		// owners with live GETs and never fence or drain the sources. A
		// write that lands on the old owner after its document was copied
		// is acked there and never seen again.
		for i, name := range s.names {
			if newRoute[i] == s.route[i] {
				continue
			}
			doc, err := s.liveGetLocked(i)
			if err != nil {
				return fmt.Errorf("collab: live handoff snapshot of %q: %w", name, err)
			}
			contents[name] = doc
		}
		for _, id := range order {
			h := s.hosts[id]
			if h == nil {
				continue
			}
			mergeMarks(marks, h.watermarks())
			switch {
			case !newRing.Contains(id):
				// Drained source: left running, unrouted, unfenced — the
				// zombie at the heart of the bug.
				s.zombies = append(s.zombies, h)
				delete(s.hosts, id)
				if pp := s.pipes[id]; pp != nil {
					pp.closeAll()
				}
				delete(s.pipes, id)
			case shardGainsDocs(id, s.route, newRoute):
				// Destinations restart to adopt the moved documents; their
				// own documents are carried exactly (they are not the buggy
				// side of this handoff).
				h.shutdown()
				for k, v := range h.contents() {
					if _, moved := contents[k]; !moved {
						contents[k] = v
					}
				}
				s.editsBanked += h.finalEdits()
				delete(s.hosts, id)
				if pp := s.pipes[id]; pp != nil {
					pp.closeAll()
				}
				delete(s.pipes, id)
			default:
				// A source that only loses documents keeps running with the
				// lost documents still applied locally. Nothing routes here
				// anymore — except the in-flight write the bug loses.
			}
		}
	} else {
		for _, id := range order {
			h := s.hosts[id]
			if h == nil {
				continue
			}
			err := h.shutdown()
			// Even when the drain errors the incarnation is dead — the
			// listener, pipes and log are closed and the task tree has
			// completed — so collect its state either way and let the
			// rollback below restart it; returning without collecting
			// would strand its documents on a retired incarnation.
			for k, v := range h.contents() {
				contents[k] = v
			}
			mergeMarks(marks, h.watermarks())
			s.editsBanked += h.finalEdits()
			delete(s.hosts, id)
			if pp := s.pipes[id]; pp != nil {
				pp.closeAll()
			}
			delete(s.pipes, id)
			if err != nil {
				return s.rollbackRebalanceLocked(nil, contents, marks,
					fmt.Errorf("collab: drain shard %d: %w", id, err))
			}
		}
	}

	// Start fresh incarnations for every affected member of the new ring
	// (in live-handoff mode, sources that merely lost documents are still
	// running and keep their incarnation). Any failure rolls the drained
	// shards back to the old epoch so their documents stay reachable.
	started := make([]int, 0, len(order))
	for _, id := range order {
		if !newRing.Contains(id) {
			continue
		}
		if _, running := s.hosts[id]; running {
			continue
		}
		owned := make(map[string]string)
		for i, name := range s.names {
			if int(newRoute[i]) != id {
				continue
			}
			content, ok := contents[name]
			if !ok {
				return s.rollbackRebalanceLocked(started, contents, marks,
					fmt.Errorf("collab: handoff lost document %q", name))
			}
			owned[name] = content
		}
		if err := s.startShard(id, newEpoch, owned, marks, 0); err != nil {
			return s.rollbackRebalanceLocked(started, contents, marks, err)
		}
		started = append(started, id)
	}
	// Unaffected shards keep their incarnation; only the fence moves.
	for id, h := range s.hosts {
		if !affected[id] {
			h.setEpoch(newEpoch)
		}
	}
	s.epoch, s.ring, s.route = newEpoch, newRing, newRoute
	s.counters.Inc("rebalances")
	return nil
}

// rollbackRebalanceLocked restores the pre-rebalance topology after a
// mid-flight drain or start failure. The incarnations this rebalance
// already started at the new epoch are killed — the route still points
// at the old topology and s.mu is held, so no op can have reached them
// and their seeded state is still in contents/marks — and every old-ring
// shard left without an incarnation restarts from the collected
// snapshots and watermarks at the OLD epoch under the OLD route, so its documents stay
// reachable instead of forwarding to a nil pipe forever. Epoch, ring and
// route never advance; the cause (joined with any restart failure) is
// returned so the rebalance still reports failed.
func (s *ShardedServer) rollbackRebalanceLocked(started []int, contents map[string]string, marks map[string]uint64, cause error) error {
	for _, id := range started {
		if h := s.hosts[id]; h != nil {
			h.kill()
			delete(s.hosts, id)
		}
		if pp := s.pipes[id]; pp != nil {
			pp.closeAll()
		}
		delete(s.pipes, id)
	}
	for _, id := range s.ring.IDs() {
		if _, running := s.hosts[id]; running {
			continue
		}
		owned := make(map[string]string)
		for i, name := range s.names {
			if int(s.route[i]) != id {
				continue
			}
			content, ok := contents[name]
			if !ok {
				cause = errors.Join(cause, fmt.Errorf("collab: rollback lost document %q", name))
				continue
			}
			owned[name] = content
		}
		// The drained incarnation's edits were banked above; the restarted
		// one counts from zero on top, so Edits() stays exact.
		if err := s.startShard(id, s.epoch, owned, marks, 0); err != nil {
			cause = errors.Join(cause, fmt.Errorf("collab: rollback restart shard %d: %w", id, err))
		}
	}
	s.counters.Inc("rebalance_rollbacks")
	return cause
}

// shardGainsDocs reports whether shard id owns documents under newRoute
// that it did not own under oldRoute.
func shardGainsDocs(id int, oldRoute, newRoute []int32) bool {
	for i := range newRoute {
		if int(newRoute[i]) == id && oldRoute[i] != newRoute[i] {
			return true
		}
	}
	return false
}

// liveGetLocked reads a document's current content straight off its
// owning shard while holding s.mu — the planted live-handoff bug copies
// documents with it, ShardState uses it to make a shard's root merge.
// Pipe exchanges never take s.mu, so this cannot deadlock with in-flight
// forwards.
func (s *ShardedServer) liveGetLocked(docIdx int) (string, error) {
	id := int(s.route[docIdx])
	pp := s.pipes[id]
	if pp == nil {
		return "", net.ErrClosed
	}
	line := fmt.Sprintf("APPLY - %d %s GET", s.epoch, s.names[docIdx])
	replies, err := pp.exchange(0, s.epoch, []string{line})
	if err != nil {
		return "", err
	}
	payload, err := s.classifyReply(id, replies[0])
	if err != nil {
		return "", err
	}
	return strconv.Unquote(payload)
}

// KillShard simulates SIGKILL of one shard: its listener, pipes and
// journal close immediately, in-flight batches lose their replies.
// Clients see BUSY sheds for its documents until ResumeShard. Requires a
// journal directory.
func (s *ShardedServer) KillShard(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Dir == "" {
		return fmt.Errorf("collab: KillShard requires ShardedOptions.Dir")
	}
	h := s.hosts[id]
	if h == nil || s.killed[id] {
		return fmt.Errorf("collab: shard %d not running", id)
	}
	h.kill()
	if pp := s.pipes[id]; pp != nil {
		pp.closeAll()
	}
	s.pipes[id] = nil
	s.killed[id] = true
	s.counters.Inc("shard_kills")
	return nil
}

// ResumeShard replays a killed shard's journal and boots a fresh
// incarnation with the recovered documents, session watermarks and edit
// count, then rejoins it at the current epoch. Ops acked before the kill
// were flushed first (flush-on-sync), so they all reappear; ops in the
// ack window die unacked and the owning sessions retry them — the
// watermarks decide exactly-once either way.
func (s *ShardedServer) ResumeShard(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.killed[id] {
		return fmt.Errorf("collab: shard %d is not killed", id)
	}
	path := filepath.Join(s.opts.Dir, journal.ShardDirName(id), "ops.log")
	contents, marks, edits, epoch, err := replayShardLog(path)
	if err != nil {
		return fmt.Errorf("collab: resume shard %d: %w", id, err)
	}
	if epoch != s.epoch {
		return fmt.Errorf("collab: resume shard %d: journal epoch %d, cluster epoch %d", id, epoch, s.epoch)
	}
	delete(s.hosts, id)
	delete(s.killed, id)
	// The replayed total becomes the new incarnation's edit base; its
	// fresh counter counts only post-resume edits on top.
	if err := s.startShard(id, s.epoch, contents, marks, edits); err != nil {
		return err
	}
	s.counters.Inc("shard_resumes")
	return nil
}

// replayShardLog rebuilds a shard incarnation's state from its journal:
// the snapshot frame (epoch, edit base, documents, session watermarks)
// plus every op frame applied in log order, each op raising its
// session's watermark. Insert-only workloads replay to
// the same marker multiset the live OT merge produced, which is what the
// convergence fingerprint checks.
func replayShardLog(path string) (contents map[string]string, marks map[string]uint64, edits int64, epoch uint64, err error) {
	log, frames, damage := shard.RecoverOpLog(path)
	if log == nil {
		return nil, nil, 0, 0, damage
	}
	log.Close()
	if len(frames) == 0 {
		return nil, nil, 0, 0, fmt.Errorf("journal has no snapshot frame (damage: %v)", damage)
	}
	texts := make(map[string]*mergeable.Text)
	marks = make(map[string]uint64)
	for _, line := range frames[0] {
		tag, rest, _ := strings.Cut(line, " ")
		switch tag {
		case "E":
			epoch, err = strconv.ParseUint(rest, 10, 64)
		case "B":
			edits, err = strconv.ParseInt(rest, 10, 64)
		case "S":
			name, quoted, _ := strings.Cut(rest, " ")
			var content string
			content, err = strconv.Unquote(quoted)
			texts[name] = mergeable.NewText(content)
		case "W":
			prefix, seq, _ := strings.Cut(rest, " ")
			marks[prefix], err = strconv.ParseUint(seq, 10, 64)
		default:
			err = fmt.Errorf("bad snapshot record %q", line)
		}
		if err != nil {
			return nil, nil, 0, 0, err
		}
	}
	for _, frame := range frames[1:] {
		for _, line := range frame {
			rest, ok := strings.CutPrefix(line, "A ")
			if !ok {
				return nil, nil, 0, 0, fmt.Errorf("bad op record %q", line)
			}
			rid, rest, _ := strings.Cut(rest, " ")
			name, cmd, _ := strings.Cut(rest, " ")
			doc := texts[name]
			if doc == nil {
				return nil, nil, 0, 0, fmt.Errorf("op record for unknown document %q", name)
			}
			prefix, seq, ok := splitRID(rid)
			if !ok {
				return nil, nil, 0, 0, fmt.Errorf("op record %q carries a bad rid", line)
			}
			if status, _, _ := applyRequest(doc, cmd); strings.HasPrefix(status, "ERR") {
				return nil, nil, 0, 0, fmt.Errorf("op record %q does not replay: %s", line, status)
			}
			marks[prefix] = max(marks[prefix], seq)
			edits++
		}
	}
	contents = make(map[string]string, len(texts))
	for name, t := range texts {
		contents[name] = t.String()
	}
	return contents, marks, edits, epoch, nil
}

// Drain flips the public front read-only.
func (s *ShardedServer) Drain() { s.front.drain() }

// Undrain restores full service.
func (s *ShardedServer) Undrain() { s.front.undrain() }

// Shutdown drains the public front, retires every shard (recovering
// killed ones from their journals), and freezes the final documents.
func (s *ShardedServer) Shutdown() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.acceptDone
		return nil
	}
	s.front.drain()
	s.listener.Close()
	s.front.shutdown()
	<-s.acceptDone
	s.connWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	finals := make(map[string]string, len(s.names))
	edits := s.editsBanked
	for id, h := range s.hosts {
		if s.killed[id] {
			path := filepath.Join(s.opts.Dir, journal.ShardDirName(id), "ops.log")
			contents, _, e, _, err := replayShardLog(path)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			for k, v := range contents {
				finals[k] = v
			}
			edits += e
			continue
		}
		if err := h.shutdown(); err != nil && firstErr == nil {
			firstErr = err
		}
		for k, v := range h.contents() {
			finals[k] = v
		}
		edits += h.finalEdits()
	}
	for _, z := range s.zombies {
		z.kill()
	}
	for _, pp := range s.pipes {
		if pp != nil {
			pp.closeAll()
		}
	}
	s.finals, s.finalEdits = finals, edits
	return firstErr
}

// Document returns a document's final content. Valid after Shutdown.
func (s *ShardedServer) Document(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.finals[name]
	return v, ok
}

// Names returns the hosted document names, sorted.
func (s *ShardedServer) Names() []string { return append([]string(nil), s.names...) }

// Edits returns the total applied-edit count across every shard
// incarnation. Valid after Shutdown.
func (s *ShardedServer) Edits() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.finalEdits
}

// Stats returns the service's counters (front door and shard fabric).
func (s *ShardedServer) Stats() *stats.Counters { return s.counters }

// MergeLatency returns the histogram of per-batch shard merge latencies.
func (s *ShardedServer) MergeLatency() *stats.Histogram { return s.hist }

// ShardState is a read-out of what the running shards hold on to between
// batches — the quantities that must stay flat however many ops have been
// applied.
type ShardState struct {
	Watermarks  int // session watermark entries, summed over shards
	InFlight    int // rids claimed by batches not yet settled; 0 at quiescence
	RetainedOps int // operations still held by the root documents' op logs
}

// ShardState reads the bounded-state gauges. Only a shard's root task may
// look at its documents' logs, so each shard's retained-op count is taken
// by the root after its next merge, which a GET of the shard's first
// document makes happen. The service lock is held throughout: read-outs
// are serialized and routed traffic waits for them.
func (s *ShardedServer) ShardState() ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st ShardState
	for id, h := range s.hosts {
		if s.killed[id] {
			continue
		}
		h.mu.Lock()
		st.Watermarks += len(h.marks)
		st.InFlight += len(h.inflight)
		h.mu.Unlock()
		if len(h.names) == 0 {
			continue
		}
		reply := make(chan int, 1)
		h.retained <- reply
		if _, err := s.liveGetLocked(s.docIndexOf(h.names[0])); err != nil {
			select { // no merge was provoked: take the request back
			case <-h.retained:
			default:
			}
			continue
		}
		select {
		case n := <-reply:
			st.RetainedOps += n
		case <-h.done:
		}
	}
	return st
}

// shardPipes is the router's connection pool to one shard incarnation:
// a fixed set of pipes, each a lazily-dialed connection with exclusive
// use under its mutex. Sessions hash onto pipes, so one shard sees
// several concurrent op streams (its OT merge loop earns its keep) while
// each stream stays ordered.
type shardPipes struct {
	shardID int
	dial    Dialer
	timeout time.Duration
	pipes   []shardPipe
}

type shardPipe struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

func newShardPipes(shardID int, dial Dialer, n int, timeout time.Duration) *shardPipes {
	return &shardPipes{shardID: shardID, dial: dial, timeout: timeout, pipes: make([]shardPipe, n)}
}

// exchange sends the APPLY lines down one pipe (framing multi-line
// batches) and reads one reply per line. Any transport failure drops the
// pipe's connection; the next exchange redials and re-handshakes.
func (p *shardPipes) exchange(idx int, epoch uint64, lines []string) ([]string, error) {
	pp := &p.pipes[idx%len(p.pipes)]
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.conn == nil {
		if err := p.handshake(pp, epoch); err != nil {
			return nil, err
		}
	}
	var req []byte
	if len(lines) > 1 {
		var err error
		req, err = shard.AppendFrame(nil, lines)
		if err != nil {
			return nil, err
		}
	} else {
		req = append([]byte(lines[0]), '\n')
	}
	pp.conn.SetDeadline(time.Now().Add(p.timeout))
	if _, err := pp.conn.Write(req); err != nil {
		pp.drop()
		return nil, err
	}
	replies := make([]string, len(lines))
	for i := range replies {
		line, err := pp.r.ReadString('\n')
		if err != nil {
			pp.drop()
			return nil, err
		}
		replies[i] = strings.TrimSpace(line)
	}
	pp.conn.SetDeadline(time.Time{})
	return replies, nil
}

// handshake dials and SHELLOs one pipe. A STALE answer classifies as
// dist.ErrStaleEpoch so the forwarding loop re-reads the route.
func (p *shardPipes) handshake(pp *shardPipe, epoch uint64) error {
	conn, err := p.dial.Dial()
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(p.timeout))
	if _, err := fmt.Fprintf(conn, "SHELLO %d\n", epoch); err != nil {
		conn.Close()
		return err
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		conn.Close()
		return err
	}
	line = strings.TrimSpace(line)
	if hostEpoch, ok := strings.CutPrefix(line, "STALE "); ok {
		conn.Close()
		e, _ := strconv.ParseUint(hostEpoch, 10, 64)
		return dist.StaleEpochError{Node: p.shardID, Epoch: e}
	}
	if !strings.HasPrefix(line, "OK ") {
		conn.Close()
		return fmt.Errorf("collab: bad SHELLO reply %q", line)
	}
	conn.SetDeadline(time.Time{})
	pp.conn, pp.r = conn, r
	return nil
}

// drop discards the pipe's connection (caller holds pp.mu).
func (pp *shardPipe) drop() {
	if pp.conn != nil {
		pp.conn.Close()
		pp.conn, pp.r = nil, nil
	}
}

// closeAll severs every pipe.
func (p *shardPipes) closeAll() {
	for i := range p.pipes {
		pp := &p.pipes[i]
		pp.mu.Lock()
		pp.drop()
		pp.mu.Unlock()
	}
}
