package explore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/collab"
	"repro/internal/dist"
	"repro/internal/faultnet"
	"repro/internal/memnet"
	"repro/internal/mergeable"
	"repro/internal/task"
)

// Built-in scenarios: small Spawn & Merge programs that each pin one of
// the paper's claims under exploration. cmd/explore runs them by name;
// the package tests use them as fixtures.

func init() {
	// The chaos scenario's structures cross node (and crash) boundaries.
	dist.RegisterListCodec[int]("explore-list-int")
	dist.RegisterRegisterCodec[int]("explore-reg-int")
	for i, delta := range []int64{100, 200, 300} {
		node, d := i, delta
		dist.RegisterFunc(fmt.Sprintf("explore-chaos-%d", node), func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.List[int]).Insert(0, node+1)
			data[1].(*mergeable.Counter).Add(d)
			return nil
		})
	}
	// The compact scenario's structures cross the crash boundary.
	dist.RegisterMapCodec[int, int]("explore-map-int-int")
	// The churn scenario's workload: one registered function per task
	// slot, its effect a pure function of the slot — never of the node
	// that happens to host it — so any placement, failover or rebalance
	// must converge on one fingerprint.
	for slot := 0; slot < churnWaves*churnTasksPerWave; slot++ {
		s := slot
		dist.RegisterFunc(fmt.Sprintf("explore-churn-%d", s), func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.List[int]).Append(s)
			data[1].(*mergeable.Counter).Add(1 << uint(s))
			return nil
		})
	}
}

// Fanout is the determinism workhorse: three rounds of three children
// each, all merged with MergeAll, so the paper demands one bit-identical
// outcome on every goroutine interleaving and every GOMAXPROCS. Multiple
// root merges also make it the crash-exploration fixture (checkpoints
// land on the root-merge cadence).
func Fanout() Scenario {
	return Scenario{
		Name:          "fanout",
		Deterministic: true,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			list := mergeable.NewList[int]()
			cnt := mergeable.NewCounter(0)
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				for round := 0; round < 3; round++ {
					for child := 0; child < 3; child++ {
						r, c := round, child
						ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
							data[0].(*mergeable.List[int]).Append(r*10 + c)
							data[1].(*mergeable.Counter).Inc()
							return nil
						}, data[0], data[1])
					}
					if err := ctx.MergeAll(); err != nil {
						return err
					}
				}
				return nil
			}
			return fn, []mergeable.Mergeable{list, cnt}
		},
	}
}

// AnyOrder drains a three-child fan-out with successive MergeAny calls,
// so the merge order — and with it the list contents — is exactly the
// explorer's pick sequence: 3×2×1 = 6 schedules, six distinct outcomes,
// each of which must survive the replay cross-check (the recorded
// MergeScript re-run through the production replay path).
func AnyOrder() Scenario {
	return Scenario{
		Name: "anyorder",
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			list := mergeable.NewList[int]()
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				for i := 0; i < 3; i++ {
					id := i
					ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
						data[0].(*mergeable.List[int]).Append(id)
						return nil
					}, data[0])
				}
				for i := 0; i < 3; i++ {
					if _, err := ctx.MergeAny(); err != nil {
						return err
					}
				}
				return nil
			}
			return fn, []mergeable.Mergeable{list}
		},
	}
}

// AbortSync races Abort against Sync: every worker checkpoints through
// Sync three times while the root aborts one of them — which one, the
// decision stream picks — and whether the flag lands before the victim's
// first Sync, mid-loop, or after its body finished is up to the goroutine
// schedule. The paper's abort contract makes the outcome deterministic
// anyway: exactly the victim's effects are discarded, wherever the abort
// landed, so the surviving operation count is the fingerprint.
func AbortSync() Scenario {
	return Scenario{
		Name:          "abortsync",
		Deterministic: true,
		// Only the counter is the observable outcome: the list's contents
		// name the surviving workers (they differ by victim), the count of
		// committed increments must not (always two workers × three).
		Fingerprint: func(data []mergeable.Mergeable) uint64 {
			return uint64(data[1].(*mergeable.Counter).Value())
		},
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			list := mergeable.NewList[int]()
			cnt := mergeable.NewCounter(0)
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				var workers []*task.Task
				for i := 0; i < 3; i++ {
					id := i
					workers = append(workers, ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
						for round := 0; round < 3; round++ {
							data[0].(*mergeable.List[int]).Append(id*10 + round)
							data[1].(*mergeable.Counter).Inc()
							if err := ctx.Sync(); err != nil {
								return nil // aborted mid-loop: bow out
							}
						}
						return nil
					}, data[0], data[1]))
				}
				victim := env.Decide("abort.victim", len(workers))
				workers[victim].Abort()
				return ctx.MergeAll()
			}
			return fn, []mergeable.Mergeable{list, cnt}
		},
	}
}

// OverlapAny exercises MergeAnyFromSet with duplicate and overlapping
// candidate sets: the first call lists two children twice over, the
// second call's set overlaps the first winner (leaving one live
// candidate, which is not a decision point at all), and a final MergeAll
// collects whatever survived.
func OverlapAny() Scenario {
	return Scenario{
		Name: "overlapany",
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			list := mergeable.NewList[int]()
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				var kids []*task.Task
				for i := 0; i < 3; i++ {
					id := i
					kids = append(kids, ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
						data[0].(*mergeable.List[int]).Append(id)
						return nil
					}, data[0]))
				}
				a, b, c := kids[0], kids[1], kids[2]
				if _, err := ctx.MergeAnyFromSet([]*task.Task{a, b, a, b}); err != nil {
					return err
				}
				if _, err := ctx.MergeAnyFromSet([]*task.Task{b, c}); err != nil {
					return err
				}
				return ctx.MergeAll()
			}
			return fn, []mergeable.Mergeable{list}
		},
	}
}

// Chaos runs the three-node distributed workload on a faultnet transport
// whose every fault decision — drop, reset, dial failure — comes from the
// decision stream instead of the seeded probabilistic draws. The healthy
// all-default schedule anchors the fingerprint; schedules that force
// faults must either recover to the same outcome (retries, failover) or
// die with an injected-fault error, which the scenario tolerates as a
// lost run. Latency injection is off by construction (deciders disable
// it), heartbeats are off by configuration, so the protocol byte stream —
// and with it the decision trace — stays schedule-deterministic.
func Chaos() Scenario {
	return Scenario{
		Name:          "chaos",
		Deterministic: true,
		TolerateError: func(err error) bool { return err != nil },
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			fnet := faultnet.New(faultnet.Config{Decider: env.Decide})
			cluster := dist.NewClusterWith(dist.Options{
				Nodes:             3,
				SendTimeout:       time.Second,
				RecvTimeout:       time.Second,
				HeartbeatInterval: -1,
				Retry:             dist.RetryPolicy{MaxAttempts: 4},
				Listen:            func(node int) dist.Listener { return fnet.Listen(node, 64) },
			})
			env.Defer(cluster.Close)
			list := mergeable.NewList(0)
			cnt := mergeable.NewCounter(0)
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				for i := 0; i < 3; i++ {
					cluster.SpawnRemote(ctx, i, fmt.Sprintf("explore-chaos-%d", i), data[0], data[1])
				}
				return ctx.MergeAll()
			}
			return fn, []mergeable.Mergeable{list, cnt}
		},
	}
}

// Churn scenario sizing: waves of remote work interleaved with
// membership transitions. Every task slot's effect is a pure function of
// the slot number, so any placement the explorer picks must converge on
// the one fingerprint.
const (
	churnWaves        = 3
	churnTasksPerWave = 2
)

// churnEligible lists members that may be drained, removed or killed
// while keeping the cluster placeable: active and not already killed.
// Victim actions run only when two or more remain, so at least one
// live, undrained member always survives to host the wave's tasks.
func churnEligible(cluster *dist.Cluster, killed map[int]bool) []int {
	var out []int
	for _, m := range cluster.Members() {
		if m.State == dist.StateActive && !killed[m.Node] {
			out = append(out, m.Node)
		}
	}
	return out
}

// churnTargets lists spawn targets: every active member, including
// killed ones — requesting a dead member is legal and exercises the
// failover path, which must land on the same outcome.
func churnTargets(cluster *dist.Cluster) []int {
	var out []int
	for _, m := range cluster.Members() {
		if m.State == dist.StateActive {
			out = append(out, m.Node)
		}
	}
	return out
}

// Churn is the elastic-membership scenario: every wave the decision
// stream picks a membership transition (none, join, drain, leave, kill)
// and a victim, places two remote tasks on explored targets — dead
// members included — and may start a late drain while the wave's tasks
// are still in flight, racing rebalancing against the merge. The
// workload is MergeAll-only and slot-addressed, so the paper's
// determinism claim extends verbatim: every join/leave/drain/kill
// schedule must produce the one bit-identical fingerprint.
func Churn() Scenario {
	return Scenario{
		Name:          "churn",
		Deterministic: true,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			cluster := dist.NewClusterWith(dist.Options{
				Nodes:             2,
				SendTimeout:       time.Second,
				RecvTimeout:       time.Second,
				HeartbeatInterval: -1,
				Retry:             dist.RetryPolicy{MaxAttempts: 6},
			})
			env.Defer(cluster.Close)
			killed := make(map[int]bool)
			list := mergeable.NewList[int]()
			cnt := mergeable.NewCounter(0)
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				for wave := 0; wave < churnWaves; wave++ {
					// Membership transition for this wave. Victim actions are
					// offered only while a second placeable member exists.
					eligible := churnEligible(cluster, killed)
					actions := 2 // none, join
					if len(eligible) >= 2 {
						actions = 5 // + drain, leave, kill
					}
					switch env.Decide(fmt.Sprintf("churn.w%d.action", wave), actions) {
					case 1:
						if _, err := cluster.Join(); err != nil {
							return err
						}
					case 2:
						victim := eligible[env.Decide(fmt.Sprintf("churn.w%d.victim", wave), len(eligible))]
						if err := cluster.Drain(victim); err != nil {
							return err
						}
					case 3:
						victim := eligible[env.Decide(fmt.Sprintf("churn.w%d.victim", wave), len(eligible))]
						if err := cluster.Leave(victim); err != nil {
							return err
						}
					case 4:
						victim := eligible[env.Decide(fmt.Sprintf("churn.w%d.victim", wave), len(eligible))]
						cluster.KillNode(victim)
						killed[victim] = true
					}
					// The wave's work, on explored placements.
					for tk := 0; tk < churnTasksPerWave; tk++ {
						slot := wave*churnTasksPerWave + tk
						targets := churnTargets(cluster)
						target := targets[env.Decide(fmt.Sprintf("churn.w%d.t%d.target", wave, tk), len(targets))]
						cluster.SpawnRemote(ctx, target, fmt.Sprintf("explore-churn-%d", slot), data[0], data[1])
					}
					// A late drain races rebalancing against the merge: the
					// tasks just spawned may still be in flight on the victim.
					if late := churnEligible(cluster, killed); len(late) >= 2 &&
						env.Decide(fmt.Sprintf("churn.w%d.late", wave), 2) == 1 {
						if err := cluster.Drain(late[0]); err != nil {
							return err
						}
					}
					if err := ctx.MergeAll(); err != nil {
						return err
					}
				}
				return nil
			}
			return fn, []mergeable.Mergeable{list, cnt}
		},
	}
}

// sessionWaitDetach blocks until the server has registered one more
// detach than base — the decision path needs the detach on the books
// before pumping the logical clock, or the eviction it expects would
// race the server's notice of the dead socket.
func sessionWaitDetach(srv *collab.ShardedServer, base int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Get("detached") <= base {
		if time.Now().After(deadline) {
			return errors.New("session: detach was never observed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// Session explores the collaborative front door's session churn: after
// each of client A's edits the decision stream picks continue, a
// drop+resume, a drop left idle until B's traffic evicts the session
// (then a fresh HELLO), or a lost-ack retransmit through the replay
// window. Client B spends a fixed total edit budget — partly pumped as
// eviction traffic, the rest at the end — so every decision path
// produces the same marker multiset, which (with the exact edit counter)
// is the deterministic fingerprint: 4³ = 64 schedules, one outcome.
// Exactly-once across every churn combination is the property under
// test — a lost or double-applied edit on any path splits the
// fingerprint.
func Session() Scenario {
	return Scenario{
		Name:          "session",
		Deterministic: true,
		Fingerprint: func(data []mergeable.Mergeable) uint64 {
			doc := data[0].(*mergeable.Text).String()
			edits := data[1].(*mergeable.Counter).Value()
			return collab.CanonicalFingerprint(doc) ^ uint64(edits)*0x9E3779B97F4A7C15
		},
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			data := []mergeable.Mergeable{mergeable.NewText(""), mergeable.NewCounter(0)}
			l := memnet.Listen(16)
			srv, err := collab.ServeSharded(l, map[string]string{"doc": ""}, collab.ShardedOptions{Front: collab.Options{
				Seed:      1,
				Admission: collab.Admission{IdleTicks: 3, IdleJitter: 2},
			}})
			if err != nil {
				l.Close()
				return func(*task.Ctx, []mergeable.Mergeable) error { return err }, data
			}
			env.Defer(func() { srv.Shutdown() }) // idempotent; normally already down

			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				opts := collab.ClientOptions{
					RequestTimeout: 10 * time.Second,
					NoAutoResume:   true, // churn is explicit; nothing may hide behind retries
				}
				// The document selection is session state: every fresh
				// session (these two, and A's after an eviction) must USE.
				dial := func() (*collab.Client, error) {
					c, err := collab.DialWith(l, opts)
					if err == nil {
						_, err = c.Use("doc")
					}
					return c, err
				}
				a, err := dial()
				if err != nil {
					return err
				}
				defer a.Close()
				b, err := dial()
				if err != nil {
					return err
				}
				defer b.Close()

				const bBudget = 18
				bNext := 0
				pumpB := func(n int) error {
					for ; n > 0 && bNext < bBudget; n-- {
						if _, err := b.Insert(0, fmt.Sprintf("b%d;", bNext)); err != nil {
							return err
						}
						bNext++
					}
					return nil
				}

				for i := 0; i < 3; i++ {
					marker := fmt.Sprintf("a%d;", i)
					switch env.Decide(fmt.Sprintf("sess.a%d", i), 4) {
					case 0: // plain edit
						if _, err := a.Insert(0, marker); err != nil {
							return err
						}
					case 1: // transport dies after the ack; resume
						if _, err := a.Insert(0, marker); err != nil {
							return err
						}
						a.Drop()
						if err := a.Reconnect(); err != nil {
							return fmt.Errorf("session: resume after drop: %w", err)
						}
					case 2: // detach long enough for eviction; fresh session
						if _, err := a.Insert(0, marker); err != nil {
							return err
						}
						base := srv.Stats().Get("detached")
						a.Drop()
						if err := sessionWaitDetach(srv, base); err != nil {
							return err
						}
						if err := pumpB(6); err != nil { // 6 ticks > IdleTicks+jitter
							return err
						}
						if err := a.Reconnect(); !errors.Is(err, collab.ErrSessionExpired) {
							return fmt.Errorf("session: resume after eviction: err = %v, want ErrSessionExpired", err)
						}
						if err := a.NewSession(); err != nil {
							return err
						}
						if _, err := a.Use("doc"); err != nil {
							return err
						}
					case 3: // ack lost mid-flight; the replay window dedupes
						if err := a.BeginInsert(0, marker); err != nil {
							return err
						}
						a.Drop()
						if err := a.Reconnect(); err != nil {
							return fmt.Errorf("session: resume for dedup: %w", err)
						}
						if _, err := a.Finish(); err != nil {
							return err
						}
					}
				}
				if err := pumpB(bBudget); err != nil { // B's remaining budget
					return err
				}
				if err := a.Bye(); err != nil {
					return err
				}
				if err := b.Bye(); err != nil {
					return err
				}
				if err := srv.Shutdown(); err != nil {
					return err
				}
				doc, _ := srv.Document("doc")
				data[0].(*mergeable.Text).Insert(0, doc)
				data[1].(*mergeable.Counter).Add(srv.Edits())
				return nil
			}
			return fn, data
		},
	}
}

// Compact scenario sizing: two waves of two workers, so the schedule
// commits multiple root merges — the cadence checkpoints, WAL rotation
// and history trimming all key off.
const (
	compactWaves   = 2
	compactWorkers = 2
)

// compactHistory maps the explored GC decision to a history policy. Pick
// 0 — the benign default every other schedule inherits — is the
// production eager trim; the alternatives must all be observationally
// invisible.
func compactHistory(pick int) task.HistoryGC {
	switch pick {
	case 1:
		return task.HistoryGC{Disable: true}
	case 2:
		return task.HistoryGC{Slack: 2}
	case 3:
		return task.HistoryGC{Slack: 8}
	}
	return task.HistoryGC{}
}

// Compact turns PR 9's compaction machinery itself into a decision site:
// the first decision picks the history-GC policy (eager, off, slack 2,
// slack 8), and the schedule then crosses it with everything else the
// explorer steers — spawn fan-out, a mid-body Sync that pins the
// parent's history from a live child, an optional aborted sibling whose
// effects must vanish, and a MergeAny drain whose pick order is
// enumerated. All worker effects commute (counter bits, distinct map
// keys) and the root's non-commuting list appends are sequential, so the
// paper's claim extends to the knob: every GC choice × abort × drain ×
// pick-order combination must land on the one bit-identical fingerprint.
// Under crash exploration (Options.Crash with a small SegmentBytes) the
// same schedules additionally sweep WAL rotation and checkpoint pruning
// against kill points at every byte budget.
func Compact() Scenario {
	return Scenario{
		Name:          "compact",
		Deterministic: true,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			env.SetHistory(compactHistory(env.Decide("compact.gc", 4)))
			list := mergeable.NewList[int]()
			cnt := mergeable.NewCounter(0)
			kv := mergeable.NewMap[int, int]()
			fn := func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				for wave := 0; wave < compactWaves; wave++ {
					// Root-local, non-commuting history: sequential appends
					// the GC must trim without changing what later merges
					// transform against.
					for k := 0; k < 4; k++ {
						data[0].(*mergeable.List[int]).Append(wave*10 + k)
					}
					// An explored abort: the doomed sibling parks in Sync (it
					// cannot outrun the flag — Sync blocks until the parent
					// merges), so its sentinel must be discarded wherever the
					// drain collects it.
					var doomed *task.Task
					if env.Decide(fmt.Sprintf("compact.w%d.abort", wave), 2) == 1 {
						doomed = ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
							data[0].(*mergeable.Counter).Add(1 << 40) // must never commit
							ctx.Sync()
							return nil
						}, data[1])
					}
					for w := 0; w < compactWorkers; w++ {
						slot := wave*compactWorkers + w
						syncs := w == 0
						ctx.Spawn(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
							data[0].(*mergeable.Counter).Add(1 << uint(slot))
							if syncs {
								// Pin the parent's history from a live child:
								// the trim watermark must respect the pin, and
								// the post-Sync tail rides to the next merge.
								if err := ctx.Sync(); err != nil {
									return nil // aborted externally: bow out
								}
							}
							data[1].(*mergeable.Map[int, int]).Set(slot, slot*3+1)
							return nil
						}, data[1], data[2])
					}
					if doomed != nil {
						doomed.Abort()
					}
					if env.Decide(fmt.Sprintf("compact.w%d.drain", wave), 2) == 1 {
						// Explored MergeAny order over commuting effects: any
						// pick sequence must land on the one fingerprint.
						for w := 0; w < compactWorkers; w++ {
							if _, err := ctx.MergeAny(); err != nil {
								return err
							}
						}
					}
					if err := ctx.MergeAll(); err != nil {
						return err
					}
				}
				return nil
			}
			return fn, []mergeable.Mergeable{list, cnt, kv}
		},
	}
}

// shardNetBook retains the internal transport of every shard incarnation
// so the scenario can dial a shard host directly — the stale-owner write
// needs a connection that bypasses the router's own epoch bookkeeping.
type shardNetBook struct {
	mu   sync.Mutex
	nets map[int]collab.ListenDialer
}

// shardNet is the ShardedOptions.ShardNet hook: a fresh memnet per
// incarnation, recorded under the shard id (later incarnations replace
// earlier ones, matching what the router itself dials).
func (b *shardNetBook) shardNet(id int) collab.ListenDialer {
	ld := memnet.Listen(64)
	b.mu.Lock()
	if b.nets == nil {
		b.nets = make(map[int]collab.ListenDialer)
	}
	b.nets[id] = ld
	b.mu.Unlock()
	return ld
}

func (b *shardNetBook) dialer(id int) collab.ListenDialer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nets[id]
}

// probeConn is one directly-dialed shard connection with its read side.
type probeConn struct {
	c net.Conn
	r *bufio.Reader
}

// shardProbe is the pre-handoff half of an in-flight write racing a
// handoff: one SHELLO'd connection per shard plus the epoch and routing
// table they were dialed under. After the handoff, fire sends a mutating
// APPLY stamped with that stale epoch to the old owner of a moved
// document.
type shardProbe struct {
	epoch uint64
	route map[string]int
	conns map[int]probeConn
}

// openShardProbe dials every current shard and completes the SHELLO
// handshake at the current epoch. Shards that cannot be dialed are
// skipped — fire treats a missing connection as a rejected write.
func openShardProbe(srv *collab.ShardedServer, book *shardNetBook) *shardProbe {
	p := &shardProbe{
		epoch: srv.Epoch(),
		route: make(map[string]int),
		conns: make(map[int]probeConn),
	}
	for _, name := range srv.Names() {
		p.route[name] = srv.RouteOf(name)
	}
	for _, id := range srv.ShardIDs() {
		if pc, ok := book.dial(id, p.epoch); ok {
			p.conns[id] = pc
		}
	}
	return p
}

// dial opens a connection to shard id's current incarnation and completes
// the SHELLO handshake at epoch.
func (b *shardNetBook) dial(id int, epoch uint64) (probeConn, bool) {
	ld := b.dialer(id)
	if ld == nil {
		return probeConn{}, false
	}
	c, err := ld.Dial()
	if err != nil {
		return probeConn{}, false
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(c)
	if _, err := fmt.Fprintf(c, "SHELLO %d\n", epoch); err != nil {
		c.Close()
		return probeConn{}, false
	}
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "OK ") {
		c.Close()
		return probeConn{}, false
	}
	return probeConn{c: c, r: r}, true
}

// probeInsert delivers one insert of the direct-dial probe session —
// retry identity probe.<seq>, marker probe<seq>; — to doc's current owner
// at the current epoch, the way a router that lost the first reply would
// deliver it again. Whether this is the first delivery or a duplicate, the
// shard must answer OK with a document holding the marker exactly once:
// applied the first time, answered from the session watermark ever after.
func probeInsert(srv *collab.ShardedServer, book *shardNetBook, doc string, seq int) error {
	epoch := srv.Epoch()
	pc, ok := book.dial(srv.RouteOf(doc), epoch)
	if !ok {
		return fmt.Errorf("shard: probe cannot reach the owner of %q", doc)
	}
	defer pc.c.Close()
	marker := fmt.Sprintf("probe%d;", seq)
	if _, err := fmt.Fprintf(pc.c, "APPLY probe.%d %d %s INS 0 %s\n", seq, epoch, doc, strconv.Quote(marker)); err != nil {
		return err
	}
	line, err := pc.r.ReadString('\n')
	if err != nil {
		return err
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(line), fmt.Sprintf("OK probe.%d ", seq))
	if content, err := strconv.Unquote(quoted); !ok || err != nil || strings.Count(content, marker) != 1 {
		return fmt.Errorf("shard: probe.%d on %q answered %q, want OK with %q exactly once", seq, doc, line, marker)
	}
	return nil
}

// fire sends the stale write: one APPLY at the pre-handoff epoch for the
// first document the handoff moved (the first document at all when
// nothing moved), on the connection to its pre-handoff owner. It reports
// whether the shard ACCEPTED it — under the epoch fence every path must
// answer STALE or a dead transport, so a true return is exactly the
// planted stale-owner bug firing.
func (p *shardProbe) fire(srv *collab.ShardedServer) bool {
	names := srv.Names()
	target := names[0]
	for _, name := range names {
		if srv.RouteOf(name) != p.route[name] {
			target = name
			break
		}
	}
	pc, ok := p.conns[p.route[target]]
	if !ok {
		return false
	}
	pc.c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(pc.c, "APPLY ghost.1 %d %s INS 0 %s\n", p.epoch, target, strconv.Quote("ghost;")); err != nil {
		return false
	}
	line, err := pc.r.ReadString('\n')
	return err == nil && strings.HasPrefix(line, "OK ")
}

func (p *shardProbe) close() {
	for _, pc := range p.conns {
		pc.c.Close()
	}
}

// shardFingerprint reduces a sharded schedule to its outcome: the final
// documents (name=content records in sorted order), the exact cross-shard
// edit count, and the count of stale-owner writes any shard accepted —
// which must be zero everywhere the fence is on.
func shardFingerprint(data []mergeable.Mergeable) uint64 {
	doc := data[0].(*mergeable.Text).String()
	edits := data[1].(*mergeable.Counter).Value()
	stale := data[2].(*mergeable.Counter).Value()
	return collab.CanonicalFingerprint(doc) ^ uint64(edits)*0x9E3779B97F4A7C15 ^ uint64(stale)*0xBF58476D1CE4E5B9
}

// shardCollect shuts the service down and folds every document, the edit
// counter and the stale-accept counter into the schedule's mergeables.
func shardCollect(srv *collab.ShardedServer, data []mergeable.Mergeable) error {
	if err := srv.Shutdown(); err != nil {
		return err
	}
	var sb strings.Builder
	for _, name := range srv.Names() {
		doc, ok := srv.Document(name)
		if !ok {
			return fmt.Errorf("shard: lost document %q", name)
		}
		fmt.Fprintf(&sb, "%s=%s;", name, doc)
	}
	data[0].(*mergeable.Text).Insert(0, sb.String())
	data[1].(*mergeable.Counter).Add(srv.Edits())
	return nil
}

// Shard explores the sharded document service's membership machinery:
// the decision stream picks a membership change (none, a shard joining,
// a shard draining), where the handoff lands relative to the client's
// write waves, whether a write dialed before the handoff races it at the
// stale epoch, and whether a shard is SIGKILLed and resumed from its
// journal afterwards. Routed writes are handoff-transparent and the
// epoch fence must turn every stale in-flight write away. Duplicate
// delivery is a decision too: a direct-dial session applies probe.1 and
// probe.2 and delivers probe.1 again — at once, after the handoff moved
// its document, or after the kill and resume of its shard — and the
// session watermark, carried through handoff and journal replay, must
// answer it without applying it. So all join/drain × handoff-point ×
// in-flight-write × crash × duplicate-point combinations land on one
// fingerprint — the cross-shard determinism claim with the handoff
// itself under explorer control. The unsafe variant (shardStaleOwner)
// removes the fence and must split.
func Shard() Scenario {
	return Scenario{
		Name:          "shard",
		Deterministic: true,
		Fingerprint:   shardFingerprint,
		Build:         func(env *Env) (task.Func, []mergeable.Mergeable) { return buildShard(env, false) },
	}
}

// shardStaleOwner is Shard with the planted stale-owner bug armed
// (UnsafeLiveHandoff): handoffs snapshot documents from still-running
// owners with no epoch fence, so the explored in-flight write is ACKED
// by the old owner and lost. Two non-default decisions — join, then
// race the write — are necessary and sufficient, which is exactly what
// the shrinker must find.
func shardStaleOwner() Scenario {
	return Scenario{
		Name:          "shard-stale-owner",
		Deterministic: true,
		Fingerprint:   shardFingerprint,
		Build:         func(env *Env) (task.Func, []mergeable.Mergeable) { return buildShard(env, true) },
	}
}

func buildShard(env *Env, unsafe bool) (task.Func, []mergeable.Mergeable) {
	finalDocs := mergeable.NewText("")
	finalEdits := mergeable.NewCounter(0)
	staleAccepted := mergeable.NewCounter(0)
	data := []mergeable.Mergeable{finalDocs, finalEdits, staleAccepted}

	book := &shardNetBook{}
	opts := collab.ShardedOptions{
		Front:             collab.Options{Seed: 1},
		Shards:            2,
		ShardNet:          book.shardNet,
		UnsafeLiveHandoff: unsafe,
	}
	if !unsafe {
		// The crash decision needs per-shard journals; the unsafe variant
		// keeps the minimal two-site space the shrinker must land on.
		dir, err := os.MkdirTemp("", "explore-shard-")
		if err != nil {
			return func(*task.Ctx, []mergeable.Mergeable) error { return err }, data
		}
		env.Defer(func() { os.RemoveAll(dir) })
		opts.Dir = dir
	}
	l := memnet.Listen(16)
	srv, err := collab.ServeSharded(l, map[string]string{"alpha": "", "beta": "", "gamma": ""}, opts)
	if err != nil {
		l.Close()
		return func(*task.Ctx, []mergeable.Mergeable) error { return err }, data
	}
	env.Defer(func() { srv.Shutdown() }) // idempotent; normally already down

	fn := func(ctx *task.Ctx, _ []mergeable.Mergeable) error {
		names := srv.Names()
		c, err := collab.DialWith(l, collab.ClientOptions{RequestTimeout: 10 * time.Second})
		if err != nil {
			return err
		}
		defer c.Close()
		writeOne := func(name string, wave int) error {
			if _, err := c.Use(name); err != nil {
				return err
			}
			_, err := c.Insert(0, fmt.Sprintf("%s%d;", name, wave))
			return err
		}
		writeWave := func(wave int) error {
			for _, name := range names {
				if err := writeOne(name, wave); err != nil {
					return err
				}
			}
			return nil
		}
		if err := writeWave(0); err != nil {
			return err
		}

		if unsafe {
			// Planted-bug variant: all routed writes stay before the
			// handoff (the live snapshot then matches the abandoned copy,
			// so the membership change alone is clean) and only a join is
			// offered — a drain would also orphan the zombie's edit
			// counter, a coarser failure that would mask the targeted one.
			if env.Decide("shard.plan", 2) == 1 {
				probe := openShardProbe(srv, book)
				defer probe.close()
				if err := srv.AddShard(7); err != nil {
					return err
				}
				if env.Decide("shard.inflight", 2) == 1 && probe.fire(srv) {
					staleAccepted.Add(1)
				}
			}
			if err := c.Bye(); err != nil {
				return err
			}
			return shardCollect(srv, data)
		}

		// The probe session writes names[1]: the document both membership
		// plans move and whose shard the crash decision kills.
		dup := env.Decide("shard.dup", 3) // probe.1 again: 0 at once, 1 after the handoff, 2 after the crash
		redeliver := func(point int) error {
			if dup != point {
				return nil
			}
			return probeInsert(srv, book, names[1], 1)
		}
		for seq := 1; seq <= 2; seq++ {
			if err := probeInsert(srv, book, names[1], seq); err != nil {
				return err
			}
		}
		if err := redeliver(0); err != nil {
			return err
		}

		plan := env.Decide("shard.plan", 3) // 0 none, 1 join, 2 drain
		handoff := func() error {
			if plan == 2 {
				return srv.DrainShard(0)
			}
			return srv.AddShard(7)
		}
		var probe *shardProbe
		if plan != 0 {
			point := env.Decide("shard.point", 2) // before wave 1 | inside it
			if env.Decide("shard.inflight", 2) == 1 {
				probe = openShardProbe(srv, book)
				defer probe.close()
			}
			if point == 0 {
				if err := handoff(); err != nil {
					return err
				}
			}
			if err := writeOne(names[0], 1); err != nil {
				return err
			}
			if point == 1 {
				if err := handoff(); err != nil {
					return err
				}
			}
			for _, name := range names[1:] {
				if err := writeOne(name, 1); err != nil {
					return err
				}
			}
			if probe != nil && probe.fire(srv) {
				staleAccepted.Add(1)
			}
		} else if err := writeWave(1); err != nil {
			return err
		}
		if err := redeliver(1); err != nil {
			return err
		}
		if env.Decide("shard.crash", 2) == 1 {
			id := srv.RouteOf(names[1])
			if err := srv.KillShard(id); err != nil {
				return err
			}
			if err := srv.ResumeShard(id); err != nil {
				return err
			}
		}
		if err := redeliver(2); err != nil {
			return err
		}
		if err := writeWave(2); err != nil {
			return err
		}
		if err := c.Bye(); err != nil {
			return err
		}
		return shardCollect(srv, data)
	}
	return fn, data
}

// Builtins returns the built-in scenarios in a stable order.
func Builtins() []Scenario {
	return []Scenario{Fanout(), AnyOrder(), AbortSync(), OverlapAny(), Chaos(), Churn(), Session(), Compact(), Shard()}
}

// BuiltinScenario looks a built-in up by name.
func BuiltinScenario(name string) (Scenario, bool) {
	for _, sc := range Builtins() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
