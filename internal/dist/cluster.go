package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memnet"
	"repro/internal/mergeable"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/task"
)

// Listener abstracts the transport a worker node listens on. The memnet
// listener satisfies it directly; faultnet wraps one with deterministic
// fault injection so the whole distributed runtime can run under chaos.
type Listener interface {
	Accept() (net.Conn, error)
	Dial() (net.Conn, error)
	Close() error
}

// RouteJournal records and replays the coordinator's failover routing
// decisions. With one attached, every SpawnRemote's effective target —
// the requested node, and each failover re-target after it — is recorded
// under the proxy task's stable path, and a restarted coordinator
// re-drives its fan-out to the nodes the previous run settled on instead
// of re-deriving placement from current health. The journal package's
// *Journal satisfies this interface and makes the record durable.
type RouteJournal interface {
	// RecordRoute durably notes that slot's task runs on node.
	RecordRoute(slot string, node int)
	// NextRoute returns the recorded node for slot, if any.
	NextRoute(slot string) (node int, ok bool)
}

// RetryPolicy governs how SpawnRemote survives transport trouble.
type RetryPolicy struct {
	// MaxAttempts is the total number of spawn attempts across nodes
	// (the first execution plus failovers). Zero means the default (2);
	// negative disables failover entirely (exactly one attempt).
	MaxAttempts int
	// DialRetries is how many extra dials to try against one node after
	// the first fails, with capped exponential backoff between them.
	// Zero means the default (2); negative disables retries.
	DialRetries int
	// BaseBackoff is the first retry's backoff; it doubles per retry up
	// to MaxBackoff. Zeros mean the defaults (5ms and 250ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// Options configures a cluster. The zero value of every field selects a
// hardened default; pass a negative duration to disable that mechanism.
type Options struct {
	// Nodes is the number of worker nodes.
	Nodes int
	// Retry is the failover policy applied to every SpawnRemote.
	Retry RetryPolicy
	// SendTimeout and RecvTimeout are the per-message deadlines applied
	// to every protocol conversation, on both the coordinator and the
	// worker side. Defaults: 30s for sends (a send is consumed promptly
	// by a healthy peer) and 2m for recvs (a recv legitimately spans the
	// peer's compute or merge time). Negative disables the deadline.
	SendTimeout time.Duration
	RecvTimeout time.Duration
	// HeartbeatInterval is how often the coordinator pings each node;
	// HeartbeatTimeout bounds each ping/pong round trip. A node that
	// misses a round is marked unhealthy (and recovers on the next
	// successful round), so a silent partition is detected within
	// roughly HeartbeatInterval + HeartbeatTimeout. Defaults: 250ms and
	// 2s. Negative HeartbeatInterval disables heartbeats.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Listen builds node i's transport listener. Nil selects plain
	// memnet; chaos tests pass a faultnet factory.
	Listen func(node int) Listener
	// Journal, when non-nil, records and replays failover routing (see
	// RouteJournal). Nil disables coordinator journaling.
	Journal RouteJournal
	// Obs, when non-nil, receives RPC spans (rpc.send, rpc.recv,
	// failover) on each proxy task's track, alongside whatever the task
	// runtime itself records. Nil — the default — costs nothing.
	Obs *obs.Tracer
}

// normalized resolves defaults; negative durations collapse to zero,
// which the peer layer treats as "no deadline".
func (o Options) normalized() Options {
	def := func(v, d time.Duration) time.Duration {
		switch {
		case v == 0:
			return d
		case v < 0:
			return 0
		}
		return v
	}
	o.SendTimeout = def(o.SendTimeout, 30*time.Second)
	o.RecvTimeout = def(o.RecvTimeout, 2*time.Minute)
	o.HeartbeatInterval = def(o.HeartbeatInterval, 250*time.Millisecond)
	o.HeartbeatTimeout = def(o.HeartbeatTimeout, 2*time.Second)
	switch {
	case o.Retry.MaxAttempts == 0:
		o.Retry.MaxAttempts = 2
	case o.Retry.MaxAttempts < 0:
		o.Retry.MaxAttempts = 1
	}
	switch {
	case o.Retry.DialRetries == 0:
		o.Retry.DialRetries = 2
	case o.Retry.DialRetries < 0:
		o.Retry.DialRetries = 0
	}
	if o.Retry.BaseBackoff == 0 {
		o.Retry.BaseBackoff = 5 * time.Millisecond
	}
	if o.Retry.MaxBackoff == 0 {
		o.Retry.MaxBackoff = 250 * time.Millisecond
	}
	if o.Listen == nil {
		o.Listen = func(int) Listener { return memnet.Listen(64) }
	}
	return o
}

// Cluster is a set of worker nodes reachable from the coordinator. Nodes
// share no memory with the coordinator or each other: all state crosses
// as serialized snapshots and operations (the MPI model, over the memnet
// transport, optionally behind a fault-injecting wrapper).
//
// Membership is elastic: the node table is copy-on-write (readers load it
// lock-free; Join/Drain/Leave/Close swap it under memMu, which serializes
// every transition and gives the epoch counter its total order). Node ids
// are stable forever — a departed member stays in the table as a
// tombstone so journaled placements keep resolving.
type Cluster struct {
	members  atomic.Pointer[[]*workerNode]
	opts     Options
	counters *stats.Counters

	// memMu serializes membership transitions (and Close); epoch stamps
	// them; closed gates every coordinator entry point.
	memMu  sync.Mutex
	epoch  atomic.Uint64
	closed atomic.Bool

	// watchers is the membership event fan-out (see MemberWatch).
	watchMu  sync.Mutex
	watchers map[*MemberWatch]struct{}

	// inflightSet tracks live task conversations so drains can shed the
	// pre-progress ones (see inflight).
	flMu        sync.Mutex
	inflightSet map[*inflight]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	hbWG     sync.WaitGroup
}

// NewCluster starts n worker nodes with default hardening (deadlines,
// heartbeats, dial retry and single-failover policy).
func NewCluster(n int) *Cluster {
	return NewClusterWith(Options{Nodes: n})
}

// NewClusterWith starts a cluster with explicit options.
func NewClusterWith(opts Options) *Cluster {
	opts = opts.normalized()
	c := &Cluster{
		opts:        opts,
		counters:    stats.NewCounters(),
		watchers:    make(map[*MemberWatch]struct{}),
		inflightSet: make(map[*inflight]struct{}),
		stop:        make(chan struct{}),
	}
	nodes := make([]*workerNode, 0, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		nodes = append(nodes, newWorkerNode(i, opts.Listen(i), opts))
	}
	c.members.Store(&nodes)
	if opts.HeartbeatInterval > 0 {
		for _, n := range nodes {
			c.hbWG.Add(1)
			go c.heartbeatLoop(n)
		}
	}
	return c
}

// nodeList loads the current membership table (including tombstones).
func (c *Cluster) nodeList() []*workerNode { return *c.members.Load() }

// Size returns the number of worker nodes ever admitted, departed
// members included (node ids are never reused).
func (c *Cluster) Size() int { return len(c.nodeList()) }

// Stats exposes the cluster's fault-tolerance counters ("failover",
// "transport_error", "dial_retry", "dial_fail", "heartbeat_miss",
// "node_unhealthy", and the membership set: "member_join",
// "member_drain", "member_leave", "rebalance", "placement_redirect",
// "drain_refused", "route_stale", "watch_lagged", "leave_forced").
func (c *Cluster) Stats() *stats.Counters { return c.counters }

// Healthy reports the coordinator's current view of a node. Out-of-range
// nodes are unhealthy by definition.
func (c *Cluster) Healthy(node int) bool {
	nodes := c.nodeList()
	if node < 0 || node >= len(nodes) {
		return false
	}
	return nodes[node].healthy.Load()
}

// KillNode simulates the failure of a single node: its listener closes
// and every in-flight connection it hosts is torn down. Remote tasks on
// the node die; tasks that had not yet merged anything fail over to a
// healthy node under the cluster's retry policy. On a closed cluster
// every node is already down, so KillNode is a no-op.
func (c *Cluster) KillNode(node int) {
	if c.closed.Load() {
		return
	}
	nodes := c.nodeList()
	if node < 0 || node >= len(nodes) {
		return
	}
	nodes[node].close()
	c.markUnhealthy(nodes[node])
}

// Close shuts the cluster down. Remote tasks already running finish their
// current conversation and die with their connections. Open membership
// watches close with the cluster.
func (c *Cluster) Close() {
	c.memMu.Lock()
	already := c.closed.Swap(true)
	c.memMu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	c.hbWG.Wait()
	for _, n := range c.nodeList() {
		n.close()
	}
	if !already {
		c.watchMu.Lock()
		for w := range c.watchers {
			w.closeCh(false)
		}
		c.watchers = make(map[*MemberWatch]struct{})
		c.watchMu.Unlock()
	}
}

func (c *Cluster) markUnhealthy(n *workerNode) {
	if n.healthy.CompareAndSwap(true, false) {
		c.counters.Inc("node_unhealthy")
	}
}

// heartbeatLoop is the coordinator→worker liveness probe for one node:
// one dedicated connection, one ping/pong round per interval. A failed
// round (dial, send, recv or wrong kind) marks the node unhealthy and
// discards the connection; a successful round marks it healthy again, so
// partitioned nodes recover automatically after Heal.
func (c *Cluster) heartbeatLoop(n *workerNode) {
	defer c.hbWG.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	var p *peer
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		if MemberState(n.state.Load()) == StateLeft {
			// A departed member stays in the table only as a tombstone;
			// probing its closed listener would just mint miss counters.
			return
		}
		if p == nil {
			conn, err := n.listener.Dial()
			if err != nil {
				c.counters.Inc("heartbeat_miss")
				c.markUnhealthy(n)
				continue
			}
			p = newPeerTimeouts(conn, c.opts.HeartbeatTimeout, c.opts.HeartbeatTimeout)
		}
		if err := p.send(envelope{Kind: kindPing}); err == nil {
			if msg, err := p.recv(); err == nil && msg.Kind == kindPong {
				n.healthy.Store(true)
				continue
			}
		}
		p.close()
		p = nil
		c.counters.Inc("heartbeat_miss")
		c.markUnhealthy(n)
	}
}

// dialNode dials a node's listener with capped exponential backoff. A
// node that stays undialable is marked unhealthy.
func (c *Cluster) dialNode(n *workerNode) (net.Conn, error) {
	backoff := c.opts.Retry.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retry.DialRetries; attempt++ {
		if attempt > 0 {
			c.counters.Inc("dial_retry")
			time.Sleep(backoff)
			backoff *= 2
			if backoff > c.opts.Retry.MaxBackoff {
				backoff = c.opts.Retry.MaxBackoff
			}
		}
		conn, err := n.listener.Dial()
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	c.counters.Inc("dial_fail")
	c.markUnhealthy(n)
	return nil, fmt.Errorf("dial: %w", lastErr)
}

// SpawnRemote spawns a task whose body runs on worker node `node`,
// executing the function registered under fnName with snapshot copies of
// data. The returned handle is an ordinary *task.Task: the local child is
// a proxy that replays the remote operations, so every Merge flavor,
// Sync-merge, condition function and Abort works on remote tasks exactly
// as on local ones — including the determinism of MergeAll ordering.
//
// Under the cluster's RetryPolicy the proxy also survives node failure:
// if the conversation dies on a transport error before any of the remote
// task's operations have been merged, the proxy re-spawns the registered
// function on the next healthy node from the original snapshots. The
// replacement execution starts from identical state and its operations
// replay through the same proxy slot, so MergeAll ordering and the final
// merged state are bit-identical to a fault-free run. Once a sync round
// has been processed the remote task's effects are part of the global
// state and the failure surfaces as an error instead (re-execution would
// double-apply).
func (c *Cluster) SpawnRemote(ctx *task.Ctx, node int, fnName string, data ...mergeable.Mergeable) *task.Task {
	return ctx.Spawn(func(ctx *task.Ctx, copies []mergeable.Mergeable) error {
		if c.closed.Load() {
			return noCoordinatorError("spawn")
		}
		nodes := c.nodeList()
		if node < 0 || node >= len(nodes) {
			return fmt.Errorf("dist: no worker node %d", node)
		}
		// The original snapshots, kept for failover re-spawns.
		snaps, err := encodeSnapshots(copies)
		if err != nil {
			return err
		}
		target := node
		// A drained (or departed) request target is redirected to the
		// next placeable member, by the same positional scan failover
		// uses — placement never depends on timing, only on the member
		// table the epoch ordered.
		if MemberState(nodes[target].state.Load()) != StateActive {
			next, ok := c.nextPlaceable(target)
			if !ok {
				if d, some := c.anyDraining(); some {
					return DrainingError{Node: d}
				}
				return fmt.Errorf("dist: no placeable node for task (requested %d)", node)
			}
			c.counters.Inc("placement_redirect")
			target = next
		}
		if j := c.opts.Journal; j != nil {
			// The proxy task's creation path is stable across runs — the
			// journal keys routing by it. A recorded route means a prior
			// (crashed) coordinator already drove this slot's failover;
			// re-drive it to the same node instead of starting over. A
			// route pointing at a member that has since departed is
			// stale: ignore it and place afresh.
			slot := ctx.Path()
			if n, ok := j.NextRoute(slot); ok {
				if n >= 0 && n < len(nodes) && MemberState(nodes[n].state.Load()) != StateLeft {
					if n != target {
						c.counters.Inc("route_replayed")
					}
					target = n
				} else {
					c.counters.Inc("route_stale")
				}
			}
			j.RecordRoute(slot, target)
		}
		for attempt := 1; ; attempt++ {
			fl := &inflight{node: target}
			err := c.runRemote(ctx, target, fnName, snaps, copies, fl)
			if err == nil {
				return nil
			}
			rebalanced := errors.Is(err, errRebalanced)
			refused := IsDraining(err)
			if fl.hasProgressed() || !(IsTransportError(err) || refused) || attempt >= c.opts.Retry.MaxAttempts {
				return err
			}
			switch {
			case rebalanced:
				// Counted by the drain that tore the conversation down.
			case refused:
				c.counters.Inc("drain_refused")
			default:
				c.counters.Inc("transport_error")
			}
			next, ok := c.nextPlaceable(target)
			if !ok {
				if d, some := c.anyDraining(); some {
					return DrainingError{Node: d}
				}
				return fmt.Errorf("dist: no healthy node for failover: %w", err)
			}
			if rebalanced || refused {
				if tr := c.opts.Obs; tr != nil {
					tr.Emit(ctx.Path(), obs.KindRebalance, fmt.Sprintf("%d->%d", target, next), -1, 0, 0)
				}
			} else {
				c.counters.Inc("failover")
				if tr := c.opts.Obs; tr != nil {
					tr.Emit(ctx.Path(), obs.KindFailover, fmt.Sprintf("%d->%d", target, next), -1, 0, 0)
				}
			}
			target = next
			if j := c.opts.Journal; j != nil {
				j.RecordRoute(ctx.Path(), target)
			}
		}
	}, data...)
}

// runRemote performs one spawn attempt against one node: dial, ship the
// snapshots, then relay until completion. fl is the conversation's
// registration in the in-flight set: it flips to progressed as soon as
// any remote operations have been merged into the coordinator's state —
// the point past which failover is no longer sound — and a drain may
// cancel it any time before that.
func (c *Cluster) runRemote(ctx *task.Ctx, node int, fnName string, snaps []snapshot, copies []mergeable.Mergeable, fl *inflight) error {
	tr := c.opts.Obs
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	conn, err := c.dialNode(c.nodeList()[node])
	if err != nil {
		return transportError{node: node, err: err}
	}
	fl.conn = conn
	c.trackInflight(fl)
	defer c.untrackInflight(fl)
	p := newPeerTimeouts(conn, c.opts.SendTimeout, c.opts.RecvTimeout)
	defer p.close()
	if err := p.send(envelope{Kind: kindSpawn, Fn: fnName, Snapshots: snaps}); err != nil {
		if fl.interrupted() {
			return transportError{node: node, err: errRebalanced}
		}
		return transportError{node: node, err: fmt.Errorf("spawn send: %w", err)}
	}
	if tr != nil {
		// Dial plus snapshot shipping: the distributed spawn's constant cost.
		tr.Emit(ctx.Path(), obs.KindSend, fmt.Sprintf("spawn@%d", node), -1, int64(len(snaps)), time.Since(start))
	}
	return c.proxyLoop(ctx, node, p, copies, fl)
}

// proxyLoop relays between the remote task and the local runtime: remote
// operations are re-issued as the proxy's own, remote syncs become local
// syncs, remote completion completes the proxy.
func (c *Cluster) proxyLoop(ctx *task.Ctx, node int, p *peer, copies []mergeable.Mergeable, fl *inflight) error {
	tr := c.opts.Obs
	var track string
	if tr != nil {
		track = ctx.Path()
	}
	for {
		var recvStart time.Time
		if tr != nil {
			recvStart = time.Now()
		}
		msg, err := p.recv()
		if err != nil {
			if fl.interrupted() {
				return transportError{node: node, err: errRebalanced}
			}
			return transportError{node: node, err: fmt.Errorf("proxy recv: %w", err)}
		}
		if tr != nil {
			name := "sync"
			if msg.Kind == kindDone {
				name = "done"
			}
			// The duration covers the wait for the remote task's compute —
			// rpc.recv latency is where a distributed run's time actually
			// goes, which is exactly what the histogram should show.
			tr.Emit(track, obs.KindRecv, fmt.Sprintf("%s@%d", name, node), -1, countOps(msg.Ops), time.Since(recvStart))
		}
		switch msg.Kind {
		case kindSync:
			// From here on the remote ops enter the coordinator's merge
			// pipeline; a later failure must not re-execute the task. A
			// drain that cancelled the conversation first wins the race:
			// the message is discarded unmerged and the task re-spawns
			// from its original snapshot elsewhere.
			if !fl.markProgressed() {
				return transportError{node: node, err: errRebalanced}
			}
			if err := replayOps(copies, msg.Ops); err != nil {
				return err
			}
			syncErr := ctx.Sync()
			reply := envelope{Kind: kindReply}
			switch {
			case errors.Is(syncErr, task.ErrAborted):
				reply.Err = wireAborted
				if err := p.send(reply); err != nil {
					return transportError{node: node, err: fmt.Errorf("proxy reply: %w", err)}
				}
				return task.ErrAborted
			case errors.Is(syncErr, task.ErrMergeRejected):
				reply.Err = wireRejected
			case syncErr != nil:
				return syncErr
			}
			snaps, err := encodeSnapshots(copies)
			if err != nil {
				return err
			}
			reply.Snapshots = snaps
			var sendStart time.Time
			if tr != nil {
				sendStart = time.Now()
			}
			if err := p.send(reply); err != nil {
				return transportError{node: node, err: fmt.Errorf("proxy reply: %w", err)}
			}
			if tr != nil {
				tr.Emit(track, obs.KindSend, fmt.Sprintf("reply@%d", node), -1, int64(len(reply.Snapshots)), time.Since(sendStart))
			}
		case kindDone:
			if msg.Err == wireDraining {
				// The drain landed worker-side before the task started:
				// nothing ran, re-place on an active member.
				return DrainingError{Node: node}
			}
			if msg.Err != "" {
				// A failed remote task contributes nothing, like a failed
				// local task; skip the replay and surface the error.
				return RemoteError{Msg: msg.Err}
			}
			// Completion is progress too: past this point the ops are
			// about to merge, so a racing drain must not double-run the
			// task. If the drain won, discard and re-spawn.
			if !fl.markProgressed() {
				return transportError{node: node, err: errRebalanced}
			}
			if err := replayOps(copies, msg.Ops); err != nil {
				return err
			}
			return nil
		default:
			// A stream that delivers an impossible kind is corrupt —
			// treat it like any other transport failure.
			return transportError{node: node, err: fmt.Errorf("unexpected message kind %d", msg.Kind)}
		}
	}
}

func encodeSnapshots(data []mergeable.Mergeable) ([]snapshot, error) {
	snaps := make([]snapshot, len(data))
	for i, m := range data {
		codec, err := codecFor(m)
		if err != nil {
			return nil, err
		}
		b, err := codec.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("dist: encode %T: %w", m, err)
		}
		snaps[i] = snapshot{Codec: codec.Name(), Data: b}
	}
	return snaps, nil
}

// countOps totals the operations in a relayed message, for span op
// counts.
func countOps(ops []opsOf) int64 {
	var n int64
	for _, o := range ops {
		n += int64(len(o.Ops))
	}
	return n
}

func replayOps(copies []mergeable.Mergeable, ops []opsOf) error {
	if len(ops) != len(copies) {
		return fmt.Errorf("dist: remote sent ops for %d structures, have %d", len(ops), len(copies))
	}
	for i, o := range ops {
		if err := mergeable.ReplayAsLocal(copies[i], o.Ops); err != nil {
			return fmt.Errorf("dist: replay remote ops: %w", err)
		}
	}
	return nil
}
