// Soak is the long-running QA tool: for a given duration it keeps
// probing the framework's two load-bearing guarantees on randomized
// workloads —
//
//   - determinism: randomly shaped task trees and randomly configured
//     simulations are executed repeatedly and fingerprint-compared;
//   - correctness: every simulation result is verified against the
//     abstract hash-chain model (netsim.VerifyTraceChains).
//
// Any violation stops the run with a nonzero exit and the offending seed,
// which reproduces the failure deterministically.
//
// With -chaos the soak instead runs the distributed runtime under the
// fault-injecting faultnet transport for the whole duration: every probe
// builds a fresh cluster behind a seeded mix of latency, message drops,
// connection resets and dial failures, and every probe that completes
// must reproduce the fault-free fingerprint exactly — the
// determinism-under-failover guarantee. Probes that chaos kills outright
// are counted, not failed.
//
// With -kill the soak probes crash recovery end to end: it forks journaled
// worker processes (RunJournaled), SIGKILLs each one at a random point
// mid-run, resumes the journal in a fresh process (Resume) and repeats
// until a worker completes — then holds the journaled result fingerprint
// to an uninterrupted in-process reference. Every kill exercises a real
// torn WAL tail; every resume exercises full recovery.
//
// With -churn the soak probes the elastic cluster end to end: each round
// forks a journaled coordinator process that drives seeded join/drain/
// leave churn while placing remote work on the shifting membership,
// SIGKILLs the coordinator mid-run, resumes it from its journal until it
// completes, and verifies the sealed fingerprint against an uninterrupted
// in-process run of the same seed. The recovered membership log feeds the
// churn.* counters (-metrics exports them).
//
// With -explore the soak rotates the built-in schedule-exploration
// scenarios (internal/explore) under the random-walk strategy, so every
// probe also exercises forced MergeAny pick orders and decision-driven
// fault injection; -metrics exports the explorer's progress counters.
//
// With -collab the soak probes the collaborative front door end to end:
// every round runs a full multi-client editing workload through a seeded
// faultnet (drops, resets, dial failures and self-healing partition
// pulses) — every client must complete its whole edit script via
// automatic reconnect+resume, and the canonical final fingerprint and
// exact edit count must match the closed-form reference (every marker
// once). A final overload round starves the admission gates (session cap,
// token bucket) and demands explicit BUSY shedding with zero lost or
// duplicated acked edits.
//
// With -mem the soak probes the bounded-memory guarantee: every round
// runs a compressed endurance workload unbounded (history GC off, no
// journal) and bounded (eager op-log GC, WAL segment rotation, checkpoint
// pruning), demands bit-identical fingerprints, retained history a small
// fraction of the unbounded run's, journal disk under a fixed bound at
// every wave, a clean read-only Verify plus a full replay of the sealed
// rotated journal, and a post-GC heap that stays flat across rounds. Its
// last leg holds the sharded service to the same standard: pass after pass
// of a fixed-session workload over two journaled shards must leave session
// watermarks, in-flight claims, retained root-log ops and post-GC heap
// where the second pass left them.
//
//	go run ./cmd/soak -duration 30s
//	go run ./cmd/soak -duration 30s -chaos
//	go run ./cmd/soak -duration 30s -kill
//	go run ./cmd/soak -duration 30s -churn
//	go run ./cmd/soak -duration 30s -collab
//	go run ./cmd/soak -duration 30s -explore -metrics localhost:0
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/collab"
	"repro/internal/cow"
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/faultnet"
	"repro/internal/journal"
	"repro/internal/memnet"
	"repro/internal/mergeable"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/task"
)

func init() {
	dist.RegisterListCodec[int]("soak-list-int")
	dist.RegisterSetCodec[int]("soak-set-int")
	for i, delta := range []int64{100, 200, 300} {
		node := i
		d := delta
		dist.RegisterFunc(fmt.Sprintf("soak-chaos-%d", node), func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
			data[0].(*mergeable.List[int]).Insert(0, node+1)
			data[1].(*mergeable.Counter).Add(d)
			return nil
		})
	}
	// The -churn workload: slot-addressed remote effects, so any
	// placement, rebalance or resumed re-placement must reproduce the one
	// fingerprint. The sleep widens the window for the parent's SIGKILL to
	// land mid-journal.
	for slot := 0; slot < churnSoakWaves*churnSoakTasks; slot++ {
		s := slot
		dist.RegisterFunc(fmt.Sprintf("soak-churn-%d", s), func(wctx *dist.WorkerCtx, data []mergeable.Mergeable) error {
			time.Sleep(2 * time.Millisecond)
			data[0].(*mergeable.List[int]).Append(s)
			data[1].(*mergeable.Counter).Add(1 << uint(s))
			return nil
		})
	}
}

// chaosProbe runs the three-node distributed determinism workload on a
// cluster whose transport injects seeded faults. It returns the merged
// fingerprint, or the error chaos inflicted.
func chaosProbe(seed int64, faults bool, counters *stats.Counters) (uint64, error) {
	opts := dist.Options{Nodes: 3}
	var fnet *faultnet.Network
	if faults {
		fnet = faultnet.New(faultnet.Config{
			Seed:         seed,
			DropProb:     0.02,
			ResetProb:    0.01,
			DialFailProb: 0.02,
			MaxDelay:     500 * time.Microsecond,
		})
		opts.SendTimeout = time.Second
		opts.RecvTimeout = time.Second
		opts.HeartbeatInterval = 50 * time.Millisecond
		opts.HeartbeatTimeout = 300 * time.Millisecond
		opts.Retry = dist.RetryPolicy{MaxAttempts: 4}
		opts.Listen = func(node int) dist.Listener { return fnet.Listen(node, 64) }
	}
	cluster := dist.NewClusterWith(opts)
	defer func() {
		cluster.Close()
		if counters != nil {
			for k, v := range cluster.Stats().Snapshot() {
				counters.Add("dist."+k, v)
			}
			if fnet != nil {
				for k, v := range fnet.Stats().Snapshot() {
					counters.Add("faultnet."+k, v)
				}
			}
		}
	}()

	list := mergeable.NewList(0)
	cnt := mergeable.NewCounter(0)
	err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		for i := 0; i < 3; i++ {
			cluster.SpawnRemote(ctx, i, fmt.Sprintf("soak-chaos-%d", i), data[0], data[1])
		}
		return ctx.MergeAll()
	}, list, cnt)
	if err != nil {
		return 0, err
	}
	return mergeable.CombineFingerprints(list.Fingerprint(), cnt.Fingerprint()), nil
}

// chaosSoak drives chaosProbe until the deadline, holding every
// successful run to the fault-free fingerprint.
func chaosSoak(duration time.Duration, baseSeed int64) {
	want, err := chaosProbe(0, false, nil)
	if err != nil {
		log.Fatalf("fault-free reference probe failed: %v", err)
	}
	r := rand.New(rand.NewSource(baseSeed))
	deadline := time.Now().Add(duration)
	counters := stats.NewCounters()
	probes, lost := 0, 0
	for time.Now().Before(deadline) {
		s := r.Int63()
		got, err := chaosProbe(s, true, counters)
		probes++
		if err != nil {
			lost++ // chaos killed the run; that is the transport working as configured
			continue
		}
		if got != want {
			fmt.Printf("DETERMINISM VIOLATION under chaos: seed %d: %x != %x\n", s, got, want)
			os.Exit(1)
		}
	}
	fmt.Printf("clean: %d chaos probes (%d lost to injected faults, %d fingerprint-verified)\n",
		probes, lost, probes-lost)
	fmt.Printf("counters: %s\n", counters)
	if probes == lost {
		if probes == 0 {
			fmt.Println("WARNING: duration too short, no chaos probes ran")
		} else {
			fmt.Println("WARNING: every probe was lost to chaos; fingerprints never checked")
		}
		os.Exit(1)
	}
}

// killData returns fresh instances of the -kill workload's structures.
func killData() []mergeable.Mergeable {
	return []mergeable.Mergeable{mergeable.NewCounter(0), mergeable.NewSet[int]()}
}

// killWorkload is the journaled workload behind -kill: three waves of
// three children, each wave drained with MergeAny. The pick order is
// non-deterministic, but every child's effect commutes (a distinct
// counter bit, a distinct set element), so the final fingerprint is
// pick-order-independent — the invariant the kill loop checks across
// SIGKILL and resume. The sleeps keep the run long enough for the
// parent's kill to land mid-journal.
func killWorkload(ctx *task.Ctx, data []mergeable.Mergeable) error {
	for wave := 0; wave < 3; wave++ {
		for c := 0; c < 3; c++ {
			id := wave*3 + c
			ctx.Spawn(func(_ *task.Ctx, data []mergeable.Mergeable) error {
				time.Sleep(2 * time.Millisecond)
				data[0].(*mergeable.Counter).Add(1 << id)
				data[1].(*mergeable.Set[int]).Add(id)
				return nil
			}, data...)
		}
		for c := 0; c < 3; c++ {
			if _, err := ctx.MergeAny(); err != nil {
				return err
			}
		}
	}
	return nil
}

// killReference runs the -kill workload uninterrupted and in-process,
// returning the fingerprint every journaled worker must reproduce.
func killReference() uint64 {
	data := killData()
	if err := task.Run(killWorkload, data...); err != nil {
		log.Fatalf("kill reference run failed: %v", err)
	}
	return mergeable.CombineFingerprints(data[0].Fingerprint(), data[1].Fingerprint())
}

// killChild is the re-exec'd worker: resume the journal in dir, or start
// the run if nothing durable exists yet. It is the process the parent
// SIGKILLs.
func killChild(dir string) {
	_, err := repro.Resume(dir, killWorkload)
	if err == nil {
		os.Exit(0)
	}
	if !errors.Is(err, repro.ErrNoJournaledRun) {
		log.Fatalf("kill child: resume %s: %v", dir, err)
	}
	// Nothing durable survived (the previous worker died before the
	// inputs record landed). Start over in a clean directory.
	if err := os.RemoveAll(dir); err != nil {
		log.Fatalf("kill child: reset %s: %v", dir, err)
	}
	if err := repro.RunJournaled(dir, killWorkload, killData()...); err != nil {
		log.Fatalf("kill child: run %s: %v", dir, err)
	}
	os.Exit(0)
}

// killSoak forks journaled workers, SIGKILLs them mid-run and resumes
// them until one completes, then verifies the journaled fingerprint
// against the uninterrupted reference. Repeats until the deadline.
func killSoak(duration time.Duration, baseSeed int64) {
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("cannot locate own binary for re-exec: %v", err)
	}
	want := killReference()
	counters := stats.NewCounters()
	r := rand.New(rand.NewSource(baseSeed))
	deadline := time.Now().Add(duration)

	for time.Now().Before(deadline) {
		dir, err := os.MkdirTemp("", "soak-kill-*")
		if err != nil {
			log.Fatalf("mkdir: %v", err)
		}
		counters.Inc("kill.runs")
		for attempt := 0; ; attempt++ {
			if attempt > 200 {
				log.Fatalf("kill soak: worker never completed after %d attempts (dir %s)", attempt, dir)
			}
			if attempt > 0 {
				counters.Inc("kill.resumes")
			}
			cmd := exec.Command(self, "-kill-child", dir)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				log.Fatalf("start worker: %v", err)
			}
			// Every fourth attempt runs unkilled so the loop always
			// terminates; the others die at a random point mid-run.
			killed := attempt%4 != 3
			if killed {
				time.Sleep(time.Duration(2+r.Intn(25)) * time.Millisecond)
				_ = cmd.Process.Kill()
				counters.Inc("kill.sigkills")
			}
			if err := cmd.Wait(); err == nil {
				break
			} else if !killed {
				log.Fatalf("worker failed without being killed: %v", err)
			}
		}

		// The worker exited cleanly: its journal must hold a done record
		// whose fingerprint matches the uninterrupted reference.
		j, err := journal.Open(dir, journal.Options{Encode: dist.EncodeSnapshot, Decode: dist.DecodeSnapshot})
		if err != nil {
			fmt.Printf("KILL-RESUME VIOLATION: completed journal unreadable: %v\n", err)
			os.Exit(1)
		}
		rec := j.Recovery()
		j.Close()
		if !rec.Done {
			fmt.Printf("KILL-RESUME VIOLATION: worker exited 0 but journal %s has no done record\n", dir)
			os.Exit(1)
		}
		if rec.Fingerprint != want {
			fmt.Printf("KILL-RESUME VIOLATION: journal %s fingerprint %x != reference %x\n", dir, rec.Fingerprint, want)
			os.Exit(1)
		}
		counters.Inc("kill.verified")
		os.RemoveAll(dir)
	}

	snap := counters.Snapshot()
	fmt.Printf("clean: %d kill runs (%d SIGKILLs, %d resumes, %d fingerprint-verified)\n",
		snap["kill.runs"], snap["kill.sigkills"], snap["kill.resumes"], snap["kill.verified"])
	fmt.Printf("counters: %s\n", counters)
	if snap["kill.runs"] == 0 {
		fmt.Println("WARNING: duration too short, no kill runs completed")
		os.Exit(1)
	}
	if snap["kill.resumes"] == 0 {
		fmt.Println("WARNING: no worker was ever resumed; kills landed too late to test recovery")
		os.Exit(1)
	}
}

// Churn soak sizing: waves of remote work interleaved with seeded
// membership transitions.
const (
	churnSoakWaves = 3
	churnSoakTasks = 2
)

// churnData returns fresh instances of the -churn workload's structures.
func churnData() []mergeable.Mergeable {
	return []mergeable.Mergeable{mergeable.NewList(0), mergeable.NewCounter(0)}
}

// churnWorkload is the journaled workload behind -churn: every wave a
// seeded membership transition (join, drain or leave, guarded so a
// placeable member always remains) runs before two remote tasks land on
// seeded targets. The cluster arrives via pointer because the journal's
// OnOpen hook builds it — membership epochs and routes must land in the
// same crash-consistent WAL the run itself uses, so a resumed coordinator
// re-drives the exact transition sequence under replay verification.
func churnWorkload(seed int64, cluster **dist.Cluster) task.Func {
	return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		c := *cluster
		r := rand.New(rand.NewSource(seed))
		for wave := 0; wave < churnSoakWaves; wave++ {
			var active []int
			for _, m := range c.Members() {
				if m.State == dist.StateActive {
					active = append(active, m.Node)
				}
			}
			switch action := r.Intn(4); {
			case action == 1:
				if _, err := c.Join(); err != nil {
					return err
				}
			case action == 2 && len(active) >= 2:
				if err := c.Drain(active[r.Intn(len(active))]); err != nil {
					return err
				}
			case action == 3 && len(active) >= 2:
				if err := c.Leave(active[r.Intn(len(active))]); err != nil {
					return err
				}
			}
			active = active[:0]
			for _, m := range c.Members() {
				if m.State == dist.StateActive {
					active = append(active, m.Node)
				}
			}
			for tk := 0; tk < churnSoakTasks; tk++ {
				slot := wave*churnSoakTasks + tk
				c.SpawnRemote(ctx, active[r.Intn(len(active))], fmt.Sprintf("soak-churn-%d", slot), data[0], data[1])
			}
			if err := ctx.MergeAll(); err != nil {
				return err
			}
		}
		return nil
	}
}

// churnJournalOptions wires a fresh two-node cluster into the journal the
// run opens, so coordinator state (membership, routes) is journaled with
// the run.
func churnJournalOptions(cluster **dist.Cluster) journal.Options {
	return journal.Options{
		Encode: dist.EncodeSnapshot,
		Decode: dist.DecodeSnapshot,
		OnOpen: func(j *journal.Journal) {
			*cluster = dist.NewClusterWith(dist.Options{Nodes: 2, HeartbeatInterval: -1, Journal: j})
		},
	}
}

// churnReference runs the -churn workload for seed uninterrupted, in
// process and unjournaled, returning the fingerprint every killed-and-
// resumed coordinator must reproduce.
func churnReference(seed int64) uint64 {
	cluster := dist.NewClusterWith(dist.Options{Nodes: 2, HeartbeatInterval: -1})
	defer cluster.Close()
	data := churnData()
	if err := task.Run(churnWorkload(seed, &cluster), data...); err != nil {
		log.Fatalf("churn reference run failed (seed %d): %v", seed, err)
	}
	return mergeable.CombineFingerprints(data[0].Fingerprint(), data[1].Fingerprint())
}

// churnChild is the re-exec'd coordinator process: resume the journaled
// churn run in dir, or start it fresh if nothing durable exists. It is
// the process the parent SIGKILLs mid-run.
func churnChild(dir string, seed int64) {
	var cluster *dist.Cluster
	closeCluster := func() {
		if cluster != nil {
			cluster.Close()
			cluster = nil
		}
	}
	_, err := journal.Resume(dir, churnJournalOptions(&cluster), churnWorkload(seed, &cluster))
	closeCluster()
	if err == nil {
		os.Exit(0)
	}
	if !errors.Is(err, journal.ErrNoRun) {
		log.Fatalf("churn child: resume %s: %v", dir, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		log.Fatalf("churn child: reset %s: %v", dir, err)
	}
	err = journal.Run(dir, churnJournalOptions(&cluster), churnWorkload(seed, &cluster), churnData()...)
	closeCluster()
	if err != nil {
		log.Fatalf("churn child: run %s: %v", dir, err)
	}
	os.Exit(0)
}

// churnSoak is the elastic-cluster endurance loop: each round picks a
// seed, forks a journaled coordinator that churns membership while
// hosting remote work, SIGKILLs it mid-run, resumes it until it
// completes, and verifies the sealed fingerprint against an uninterrupted
// in-process reference for the same seed. The recovered membership
// records feed the churn.joins/drains/leaves counters.
func churnSoak(duration time.Duration, baseSeed int64, reg *repro.MetricsRegistry) {
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("cannot locate own binary for re-exec: %v", err)
	}
	counters := stats.NewCounters()
	if reg != nil {
		reg.AddCounters("churn", counters)
	}
	r := rand.New(rand.NewSource(baseSeed))
	deadline := time.Now().Add(duration)

	for time.Now().Before(deadline) {
		childSeed := r.Int63()
		want := churnReference(childSeed)
		dir, err := os.MkdirTemp("", "soak-churn-*")
		if err != nil {
			log.Fatalf("mkdir: %v", err)
		}
		counters.Inc("runs")
		for attempt := 0; ; attempt++ {
			if attempt > 200 {
				log.Fatalf("churn soak: coordinator never completed after %d attempts (dir %s, seed %d)", attempt, dir, childSeed)
			}
			if attempt > 0 {
				counters.Inc("resumes")
			}
			cmd := exec.Command(self, "-churn-child", dir, "-seed", fmt.Sprint(childSeed))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				log.Fatalf("start coordinator: %v", err)
			}
			// Every fourth attempt runs unkilled so the loop always
			// terminates; the others die at a random point mid-run.
			killed := attempt%4 != 3
			if killed {
				time.Sleep(time.Duration(2+r.Intn(25)) * time.Millisecond)
				_ = cmd.Process.Kill()
				counters.Inc("sigkills")
			}
			if err := cmd.Wait(); err == nil {
				break
			} else if !killed {
				log.Fatalf("coordinator failed without being killed (seed %d): %v", childSeed, err)
			}
		}

		// The coordinator exited cleanly: its journal must hold a done
		// record matching the uninterrupted reference, and its membership
		// log is the churn audit trail.
		j, err := journal.Open(dir, journal.Options{Encode: dist.EncodeSnapshot, Decode: dist.DecodeSnapshot})
		if err != nil {
			fmt.Printf("CHURN VIOLATION: completed journal unreadable (seed %d): %v\n", childSeed, err)
			os.Exit(1)
		}
		rec := j.Recovery()
		j.Close()
		if !rec.Done {
			fmt.Printf("CHURN VIOLATION: coordinator exited 0 but journal %s has no done record (seed %d)\n", dir, childSeed)
			os.Exit(1)
		}
		if rec.Fingerprint != want {
			fmt.Printf("CHURN VIOLATION: seed %d: resumed coordinator fingerprint %x != uninterrupted reference %x (journal %s)\n",
				childSeed, rec.Fingerprint, want, dir)
			os.Exit(1)
		}
		for _, m := range rec.Members {
			switch dist.MemberEventKind(m.Kind) {
			case dist.MemberJoined:
				counters.Inc("joins")
			case dist.MemberDraining:
				counters.Inc("drains")
			case dist.MemberLeft:
				counters.Inc("leaves")
			}
		}
		counters.Inc("verified")
		os.RemoveAll(dir)
	}

	snap := counters.Snapshot()
	fmt.Printf("clean: %d churn runs (%d SIGKILLs, %d resumes, %d fingerprint-verified; %d joins, %d drains, %d leaves)\n",
		snap["runs"], snap["sigkills"], snap["resumes"], snap["verified"], snap["joins"], snap["drains"], snap["leaves"])
	fmt.Printf("counters: %s\n", counters)
	if snap["runs"] == 0 {
		fmt.Println("WARNING: duration too short, no churn runs completed")
		os.Exit(1)
	}
	if snap["resumes"] == 0 {
		fmt.Println("WARNING: no coordinator was ever resumed; kills landed too late to test failover")
		os.Exit(1)
	}
}

// Memory soak sizing: each round runs memWaves waves; even waves churn
// the sequence structures and drain through MergeAll, odd waves apply
// commuting counter/set effects and drain through MergeAny, so the
// journal carries real picks across rotations while the final
// fingerprint stays pick-order-independent.
const (
	memWaves        = 128
	memTasks        = 3
	memChurnOps     = 32
	memCommuteOps   = 8
	memValueCap     = 96
	memSegmentBytes = 4 << 10
)

// memData returns fresh instances of the -mem workload's structures. The
// workload keeps every value bounded — churn pairs inserts with deletes,
// the root clamps after each merge, set elements repeat modulo a small
// space — so the only unbounded growth is history: op logs in memory,
// WAL segments and checkpoints on disk. Exactly the growth the
// compaction layers must cap.
func memData() []mergeable.Mergeable {
	vals := make([]int, 64)
	for i := range vals {
		vals[i] = i
	}
	return []mergeable.Mergeable{
		mergeable.NewList(vals...),
		mergeable.NewText("bounded-memory-soak"),
		mergeable.NewCounter(0),
		mergeable.NewSet[int](),
	}
}

// memFingerprint folds the -mem structures' fingerprints in data order.
func memFingerprint(data []mergeable.Mergeable) uint64 {
	fps := make([]uint64, len(data))
	for i, m := range data {
		fps[i] = m.Fingerprint()
	}
	return mergeable.CombineFingerprints(fps...)
}

// memWorkload is the compressed endurance workload behind -mem. Every
// observable effect derives from seed; MergeAny appears only on waves
// whose child effects commute, so the one fingerprint is reachable under
// any pick order — journaled, resumed and unjournaled runs must all land
// on it. onWave (may be nil) observes the root between waves without
// touching the data.
func memWorkload(seed int64, waves int, onWave func(wave int)) task.Func {
	return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		for wave := 0; wave < waves; wave++ {
			churn := wave%2 == 0
			for c := 0; c < memTasks; c++ {
				childSeed := seed ^ int64(wave)*1000003 ^ int64(c)*7919
				slot := wave*memTasks + c
				ctx.Spawn(func(_ *task.Ctx, data []mergeable.Mergeable) error {
					if churn {
						r := rand.New(rand.NewSource(childSeed))
						l := data[0].(*mergeable.List[int])
						tx := data[1].(*mergeable.Text)
						cnt := data[2].(*mergeable.Counter)
						for i := 0; i < memChurnOps; i++ {
							switch r.Intn(5) {
							case 0:
								l.Insert(r.Intn(l.Len()+1), r.Intn(1000))
							case 1:
								if l.Len() > 0 {
									l.Delete(r.Intn(l.Len()))
								}
							case 2:
								tx.Insert(r.Intn(tx.Len()+1), string(rune('a'+r.Intn(26))))
							case 3:
								if tx.Len() > 0 {
									tx.Delete(r.Intn(tx.Len()), 1)
								}
							default:
								cnt.Add(int64(r.Intn(100) - 50))
							}
						}
						return nil
					}
					// Commuting effects only: this wave drains via MergeAny
					// and any pick order must produce the same values.
					cnt := data[2].(*mergeable.Counter)
					set := data[3].(*mergeable.Set[int])
					for i := 0; i < memCommuteOps; i++ {
						cnt.Add(1 << uint((slot+i)%60))
						set.Add((slot*memCommuteOps + i) % 251)
					}
					return nil
				}, data...)
			}
			if churn {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			} else {
				for c := 0; c < memTasks; c++ {
					if _, err := ctx.MergeAny(); err != nil {
						return err
					}
				}
			}
			// Root rebalance: clamp the merged values back under the cap so
			// they cannot trend upward across thousands of waves.
			l := data[0].(*mergeable.List[int])
			if l.Len() > memValueCap {
				l.DeleteN(memValueCap, l.Len()-memValueCap)
			}
			for l.Len() < 16 {
				l.Append(l.Len())
			}
			tx := data[1].(*mergeable.Text)
			if tx.Len() > memValueCap {
				tx.Delete(memValueCap, tx.Len()-memValueCap)
			}
			if tx.Len() == 0 {
				tx.Append("reseed")
			}
			if onWave != nil {
				onWave(wave)
			}
		}
		return nil
	}
}

// retainedOps sums how many committed operations the structures' op logs
// physically retain — the in-memory quantity history GC bounds.
func retainedOps(data []mergeable.Mergeable) int {
	type logger interface{ Log() *mergeable.Log }
	total := 0
	for _, m := range data {
		if l, ok := m.(logger); ok {
			total += l.Log().RetainedLen()
		}
	}
	return total
}

// postGCHeap forces a collection and returns the live heap in bytes — the
// sample both -mem legs hold flat.
func postGCHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dirBytes sums the sizes of dir's entries — the journal's disk
// footprint (live segment, any mid-rotation sibling, checkpoints).
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// memSoak is PR 9's bounded-memory acceptance harness: every round runs
// the compressed endurance workload three ways — unbounded reference
// (history GC off, no journal), bounded journaled run (eager GC, WAL
// segment rotation, checkpoint pruning), and a full replay of the sealed
// rotated journal — and demands bit-identical fingerprints, retained
// history a fraction of the unbounded run's, journal disk under a fixed
// bound at every wave, and a post-GC heap that stays flat across rounds.
func memSoak(duration time.Duration, baseSeed int64, reg *repro.MetricsRegistry) {
	counters := stats.NewCounters()
	if reg != nil {
		reg.AddCounters("mem", counters)
	}
	memOpts := func() journal.Options {
		return journal.Options{
			Encode:            dist.EncodeSnapshot,
			Decode:            dist.DecodeSnapshot,
			SegmentBytes:      memSegmentBytes,
			RetainCheckpoints: 2,
			History:           task.HistoryGC{Stats: counters},
			Stats:             counters,
		}
	}
	const diskBound = int64(6*memSegmentBytes + 64<<10)
	r := rand.New(rand.NewSource(baseSeed))
	deadline := time.Now().Add(duration)
	var heapSamples []uint64
	var maxDisk int64
	rounds := 0
	lastBounded, lastUnbounded := 0, 0

	for rounds == 0 || time.Now().Before(deadline) {
		seed := r.Int63()

		// Unbounded reference: the fingerprint authority and the
		// retained-history yardstick.
		ref := memData()
		if err := task.RunWith(task.RunConfig{History: task.HistoryGC{Disable: true}},
			memWorkload(seed, memWaves, nil), ref...); err != nil {
			log.Fatalf("mem reference run failed (seed %d): %v", seed, err)
		}
		want := memFingerprint(ref)
		unbounded := retainedOps(ref)

		// Bounded journaled run: eager history GC, rotating WAL, pruned
		// checkpoints. Disk is probed after every wave.
		dir, err := os.MkdirTemp("", "soak-mem-*")
		if err != nil {
			log.Fatalf("mkdir: %v", err)
		}
		data := memData()
		onWave := func(int) {
			if size := dirBytes(dir); size > maxDisk {
				maxDisk = size
			}
			if maxDisk > diskBound {
				fmt.Printf("MEM DISK VIOLATION: seed %d: journal dir grew to %d bytes (bound %d)\n", seed, maxDisk, diskBound)
				os.Exit(1)
			}
		}
		if err := journal.Run(dir, memOpts(), memWorkload(seed, memWaves, onWave), data...); err != nil {
			log.Fatalf("mem journaled run failed (seed %d): %v", seed, err)
		}
		if got := memFingerprint(data); got != want {
			fmt.Printf("MEM DETERMINISM VIOLATION: seed %d: bounded run fingerprint %016x != unbounded reference %016x\n", seed, got, want)
			os.Exit(1)
		}
		bounded := retainedOps(data)
		if bounded*4 > unbounded {
			fmt.Printf("MEM COMPACTION VIOLATION: seed %d: GC-on run retains %d ops vs %d unbounded — history was not trimmed\n", seed, bounded, unbounded)
			os.Exit(1)
		}

		// The sealed, rotated, pruned journal must verify read-only and
		// replay end to end onto the same fingerprint.
		if err := journal.Verify(dir); err != nil {
			fmt.Printf("MEM JOURNAL VIOLATION: seed %d: sealed journal fails verification: %v\n", seed, err)
			os.Exit(1)
		}
		out, err := journal.Resume(dir, memOpts(), memWorkload(seed, memWaves, nil))
		if err != nil {
			fmt.Printf("MEM REPLAY VIOLATION: seed %d: sealed journal replay failed: %v\n", seed, err)
			os.Exit(1)
		}
		if got := memFingerprint(out); got != want {
			fmt.Printf("MEM REPLAY VIOLATION: seed %d: replayed fingerprint %016x != reference %016x\n", seed, got, want)
			os.Exit(1)
		}
		os.RemoveAll(dir)
		lastBounded, lastUnbounded = bounded, unbounded
		rounds++

		// One post-GC heap sample per round: with values clamped and
		// history trimmed, the live set must not trend upward.
		heapSamples = append(heapSamples, postGCHeap())
	}

	if counters.Get("compaction.wal.rotations") == 0 {
		fmt.Println("WARNING: the WAL never rotated; the segment budget was never exceeded")
		os.Exit(1)
	}
	if len(heapSamples) >= 4 {
		base := heapSamples[len(heapSamples)/4]
		last := heapSamples[len(heapSamples)-1]
		if last > base*2+(32<<20) {
			fmt.Printf("MEM GROWTH VIOLATION: post-GC heap grew from %d to %d bytes over %d rounds\n", base, last, rounds)
			os.Exit(1)
		}
	}
	allocd, reclaimed := cow.ChunkAccounting()
	fmt.Printf("clean: %d mem rounds (%d waves × %d tasks each; %d rotations, %d segments deleted, %d checkpoints pruned, %d log trims)\n",
		rounds, memWaves, memTasks,
		counters.Get("compaction.wal.rotations"), counters.Get("compaction.wal.segments_deleted"),
		counters.Get("compaction.ckpt.pruned"), counters.Get("compaction.log.trims"))
	fmt.Printf("bounded: retained ops %d vs %d unbounded; journal disk peak %d bytes (bound %d); cow chunks %d allocated / %d reclaimed\n",
		lastBounded, lastUnbounded, maxDisk, diskBound, allocd, reclaimed)
	if len(heapSamples) > 0 {
		fmt.Printf("heap: first %.1f MB, last %.1f MB over %d post-GC samples\n",
			float64(heapSamples[0])/(1<<20), float64(heapSamples[len(heapSamples)-1])/(1<<20), len(heapSamples))
	}
	fmt.Printf("counters: %s\n", counters)
	memShardLeg(duration / 4)
}

// taskProbe builds a random-shaped task tree from seed and returns its
// result fingerprint. The shape and every operation derive from the seed,
// so two executions must agree.
func taskProbe(seed int64) uint64 { return taskProbeWith(seed, nil) }

// taskProbeWith is taskProbe with optional span tracing (tr may be nil).
func taskProbeWith(seed int64, tr *repro.Tracer) uint64 {
	list := repro.NewList(0)
	text := repro.NewText("s")
	counter := repro.NewCounter(0)

	var body func(seed int64, depth int) repro.Func
	body = func(seed int64, depth int) repro.Func {
		return func(ctx *repro.Ctx, data []repro.Mergeable) error {
			r := rand.New(rand.NewSource(seed))
			l := data[0].(*repro.List[int])
			tx := data[1].(*repro.Text)
			c := data[2].(*repro.Counter)
			for i, n := 0, r.Intn(5); i < n; i++ {
				switch r.Intn(4) {
				case 0:
					l.Insert(r.Intn(l.Len()+1), r.Intn(100))
				case 1:
					if l.Len() > 0 {
						l.Delete(r.Intn(l.Len()))
					}
				case 2:
					tx.Insert(r.Intn(tx.Len()+1), string(rune('a'+r.Intn(26))))
				default:
					c.Add(int64(r.Intn(20) - 10))
				}
			}
			if depth > 0 {
				for k, kids := 0, r.Intn(3); k < kids; k++ {
					ctx.Spawn(body(seed*7919+int64(k+1), depth-1), l, tx, c)
				}
				if r.Intn(2) == 0 {
					if err := ctx.MergeAll(); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	if err := repro.RunObserved(tr, body(seed, 3), list, text, counter); err != nil {
		log.Fatalf("seed %d: task probe failed: %v", seed, err)
	}
	h := list.Fingerprint()
	h ^= text.Fingerprint() * 1099511628211
	h ^= counter.Fingerprint() * 16777619
	return h
}

// traceSoak probes the observability layer's determinism claim: the
// traced task probe is run at GOMAXPROCS 1 and 4 and the two span trees
// must be bit-identical (fingerprints and exported counter sets), only
// durations differing. A violation prints the span-tree diff — the exact
// merge where the runs forked — and the reproducing seed.
func traceSoak(duration time.Duration, baseSeed int64, reg *repro.MetricsRegistry) {
	r := rand.New(rand.NewSource(baseSeed))
	deadline := time.Now().Add(duration)
	probes := 0
	var lastTree *repro.SpanTree
	for probes == 0 || time.Now().Before(deadline) {
		s := r.Int63()
		var trees []*repro.SpanTree
		var counts []string
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			tr := repro.NewTracer()
			taskProbeWith(s, tr)
			runtime.GOMAXPROCS(prev)
			trees = append(trees, tr.Tree())
			counts = append(counts, tr.Counters().String())
			if reg != nil {
				reg.AddTracer("runtime", tr)
			}
		}
		if trees[0].Fingerprint() != trees[1].Fingerprint() || counts[0] != counts[1] {
			fmt.Printf("SPAN-TREE VIOLATION: seed %d: traced runs differ across GOMAXPROCS 1/4\n", s)
			for _, d := range obs.Diff(trees[0], trees[1]) {
				fmt.Println("  " + d)
			}
			if counts[0] != counts[1] {
				fmt.Printf("  counters at procs=1: %s\n  counters at procs=4: %s\n", counts[0], counts[1])
			}
			os.Exit(1)
		}
		lastTree = trees[1]
		probes++
	}
	fmt.Printf("clean: %d traced probes, span trees bit-identical across GOMAXPROCS 1/4 (last fingerprint %016x)\n",
		probes, lastTree.Fingerprint())
}

// simProbe runs one random simulation config on a random engine,
// verifies its hash chains, and (for deterministic engines) re-runs it to
// compare fingerprints.
func simProbe(r *rand.Rand) error {
	engines := netsim.AllEngines()
	e := engines[r.Intn(len(engines))]
	cfg := netsim.Config{
		Hosts:    2 + r.Intn(6),
		Messages: 4 + r.Intn(12),
		TTL:      2 + r.Intn(8),
		Workload: r.Intn(4),
		Seed:     r.Uint64(),
		Routing:  e.Routing,
	}
	res, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s %+v: %w", e.Name, cfg, err)
	}
	if err := netsim.VerifyTraceChains(res, cfg); err != nil {
		return fmt.Errorf("%s %+v: %w", e.Name, cfg, err)
	}
	if e.DeterministicResults {
		res2, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s rerun: %w", e.Name, err)
		}
		if res2.Fingerprint != res.Fingerprint {
			return fmt.Errorf("%s %+v: non-deterministic (%x vs %x)", e.Name, cfg, res.Fingerprint, res2.Fingerprint)
		}
	}
	return nil
}

// exploreSoak rotates the built-in exploration scenarios under the
// random-walk strategy until the deadline, holding every schedule to the
// explorer's invariants (determinism, replay soundness, progress). With
// -metrics the explorer's counters are exported under the "explore"
// group, so /metrics shows schedules, decisions and shrink probes live.
func exploreSoak(duration time.Duration, baseSeed int64, reg *repro.MetricsRegistry) {
	counters := stats.NewCounters()
	if reg != nil {
		reg.AddCounters("explore", counters)
	}
	scenarios := explore.Builtins()
	deadline := time.Now().Add(duration)
	rounds := 0
	for i := 0; time.Now().Before(deadline); i++ {
		sc := scenarios[i%len(scenarios)]
		res, err := explore.Run(sc, explore.Options{
			Schedules: 16,
			Seed:      baseSeed + int64(i),
			Shrink:    true,
			Stats:     counters,
		})
		if err != nil {
			fmt.Printf("EXPLORE ERROR: %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		if !res.Ok() {
			fmt.Printf("EXPLORE VIOLATION (round seed %d): %v\n", baseSeed+int64(i), res.Violations[0])
			os.Exit(1)
		}
		rounds++
	}
	fmt.Printf("clean: %d exploration rounds, %d schedules, %d decisions, %d lost to tolerated chaos\n",
		rounds, counters.Get("schedule"), counters.Get("decision"), counters.Get("lost"))
}

const (
	collabClients = 8
	collabEdits   = 50
)

// collabServe starts the single-process configuration of the collab
// service — one shard hosting the one empty document "doc".
func collabServe(l collab.Listener, front collab.Options) (*collab.ShardedServer, error) {
	return collab.ServeSharded(l, map[string]string{"doc": ""}, collab.ShardedOptions{Front: front})
}

// markerSet is the closed-form outcome of the marker workloads: every
// listed client's markers c<id>-e<j>; for j < edits, each written once.
// Its canonical fingerprint is the one a correct run must end on.
func markerSet(ids []int, edits int) string {
	var sb strings.Builder
	for _, id := range ids {
		for j := 0; j < edits; j++ {
			fmt.Fprintf(&sb, "c%d-e%d;", id, j)
		}
	}
	return sb.String()
}

// collabDrive runs the front-door workload: `clients` concurrent editors
// of "doc" each prepend `edits` unique `;`-terminated markers and say
// BYE. It returns the first client error — under reconnect+resume a chaos
// run is expected to complete the exact same workload a fault-free run
// does.
func collabDrive(d collab.Dialer, clients, edits int, opts collab.ClientOptions) error {
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := collab.DialWith(d, opts)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			if _, err := c.Use("doc"); err != nil {
				errs <- fmt.Errorf("client %d: use: %w", id, err)
				return
			}
			for j := 0; j < edits; j++ {
				if _, err := c.Insert(0, fmt.Sprintf("c%d-e%d;", id, j)); err != nil {
					errs <- fmt.Errorf("client %d edit %d: %w", id, j, err)
					return
				}
			}
			errs <- c.Bye()
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collabReference returns the canonical fingerprint and exact edit count
// every probe must reproduce: each client's markers, each once.
func collabReference() (uint64, int64) {
	ids := make([]int, collabClients)
	for id := range ids {
		ids[id] = id
	}
	return collab.CanonicalFingerprint(markerSet(ids, collabEdits)), collabClients * collabEdits
}

// collabFinish shuts a probe's server down and returns its final document
// fingerprint and edit count, folding its counters into counters under
// prefix.
func collabFinish(srv *collab.ShardedServer, prefix string, counters *stats.Counters) (uint64, int64, error) {
	err := srv.Shutdown()
	for k, v := range srv.Stats().Snapshot() {
		counters.Add(prefix+k, v)
	}
	doc, _ := srv.Document("doc")
	return collab.CanonicalFingerprint(doc), srv.Edits(), err
}

// collabProbe runs one seeded chaos round: drops, resets, dial failures
// and periodic self-healing partition pulses, with every client riding
// automatic reconnect+resume. Server and faultnet counters are merged
// into `counters` for the final report.
func collabProbe(seed int64, counters *stats.Counters) (uint64, int64, error) {
	fnet := faultnet.New(faultnet.Config{
		Seed:         seed,
		DropProb:     0.03,
		ResetProb:    0.01,
		DialFailProb: 0.02,
	})
	l := fnet.Listen(0, 64)
	srv, err := collabServe(l, collab.Options{Seed: seed, Counters: stats.NewCounters()})
	if err != nil {
		return 0, 0, err
	}

	// A bounded burst of partition pulses: each blackholes the next few
	// writes and self-heals on traffic. The burst must end — a pulse every
	// few tens of milliseconds forever stalls more client time per second
	// than a second holds, and the probe would livelock.
	stop := make(chan struct{})
	pulses := make(chan struct{})
	go func() {
		defer close(pulses)
		for i := 0; i < 8; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				fnet.PartitionFor(0, 3)
			}
		}
	}()
	err = collabDrive(l, collabClients, collabEdits, collab.ClientOptions{
		RequestTimeout: 100 * time.Millisecond,
		Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond, MaxAttempts: 2000},
	})
	close(stop)
	<-pulses
	fnet.Heal(0)
	fp, edits, serr := collabFinish(srv, "collab.", counters)
	for k, v := range fnet.Stats().Snapshot() {
		counters.Add("faultnet."+k, v)
	}
	return fp, edits, errors.Join(err, serr)
}

// collabOverloadProbe starves the admission gates — session cap and
// token bucket — on a healthy network. The server must shed explicitly
// (BUSY, counted) and still lose or duplicate nothing.
func collabOverloadProbe(counters *stats.Counters) (fp uint64, edits, shed int64, err error) {
	l := memnet.Listen(64)
	srv, err := collabServe(l, collab.Options{
		Admission: collab.Admission{
			MaxSessions: 3,
			RateBurst:   4,
			RateEvery:   2,
			RetryAfter:  time.Millisecond,
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	err = collabDrive(l, collabClients, collabEdits, collab.ClientOptions{
		RequestTimeout: 2 * time.Second,
		Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond, MaxAttempts: 50000},
	})
	fp, edits, serr := collabFinish(srv, "overload.", counters)
	st := srv.Stats()
	return fp, edits, st.Get("shed") + st.Get("busy_rate"), errors.Join(err, serr)
}

// collabSoak probes the collaborative front door until the deadline:
// every chaos round must complete the full workload via reconnect+resume
// and converge on the closed-form canonical fingerprint with an exact
// edit count, then one overload round must shed visibly without loss.
func collabSoak(duration time.Duration, baseSeed int64, reg *repro.MetricsRegistry) {
	refFp, refEdits := collabReference()
	counters := stats.NewCounters()
	if reg != nil {
		reg.AddCounters("collab", counters)
	}
	r := rand.New(rand.NewSource(baseSeed))
	deadline := time.Now().Add(duration)
	probes := 0
	for time.Now().Before(deadline) {
		s := r.Int63()
		fp, edits, err := collabProbe(s, counters)
		if err != nil {
			fmt.Printf("COLLAB RESILIENCE VIOLATION: seed %d: a client failed to complete under chaos: %v\n", s, err)
			os.Exit(1)
		}
		if fp != refFp || edits != refEdits {
			fmt.Printf("COLLAB CONVERGENCE VIOLATION: seed %d: canonical fingerprint %016x (%d edits) != reference %016x (%d edits)\n",
				s, fp, edits, refFp, refEdits)
			os.Exit(1)
		}
		probes++
	}
	fp, edits, shed, err := collabOverloadProbe(counters)
	if err != nil {
		fmt.Printf("COLLAB OVERLOAD VIOLATION: a client failed to complete under admission pressure: %v\n", err)
		os.Exit(1)
	}
	if fp != refFp || edits != refEdits {
		fmt.Printf("COLLAB OVERLOAD VIOLATION: canonical fingerprint %016x (%d edits) != reference %016x (%d edits)\n",
			fp, edits, refFp, refEdits)
		os.Exit(1)
	}
	if shed == 0 {
		fmt.Printf("COLLAB OVERLOAD VIOLATION: the gates shed nothing; overload was never exercised\n")
		os.Exit(1)
	}
	injected := counters.Get("faultnet.drop") + counters.Get("faultnet.reset") +
		counters.Get("faultnet.dial_fail") + counters.Get("faultnet.partition_heal")
	fmt.Printf("clean: %d chaos probes (%d clients × %d edits each, %d faults injected, %d resumes, %d replays) + 1 overload probe (%d shed), all converged on %016x\n",
		probes, collabClients, collabEdits, injected,
		counters.Get("collab.resumed"), counters.Get("collab.replayed"), shed, refFp)
	fmt.Printf("counters: %s\n", counters)
	if probes == 0 {
		fmt.Println("WARNING: no chaos probes completed inside the soak window")
		os.Exit(1)
	}
}

func main() {
	duration := flag.Duration("duration", 30*time.Second, "how long to soak")
	seed := flag.Int64("seed", time.Now().UnixNano(), "base seed (printed for reproduction)")
	chaos := flag.Bool("chaos", false, "soak the distributed runtime under fault injection instead")
	kill := flag.Bool("kill", false, "soak crash recovery: SIGKILL and resume journaled workers in a loop")
	churn := flag.Bool("churn", false, "soak the elastic cluster: seeded join/drain/leave churn with coordinator SIGKILL, journal resume and fingerprint verification")
	trace := flag.Bool("trace", false, "soak the span tracer: traced probes must be bit-identical across GOMAXPROCS 1/4")
	explores := flag.Bool("explore", false, "soak the schedule explorer: rotate the built-in scenarios under random-walk exploration")
	collabs := flag.Bool("collab", false, "soak the collab front door: chaos rounds must complete via reconnect+resume and converge, an overload round must shed without loss")
	mem := flag.Bool("mem", false, "soak bounded memory: journaled GC-on runs must match the unbounded reference bit for bit while history, WAL and heap stay bounded")
	shard := flag.Bool("shard", false, "soak the sharded document service: 1/2/4-shard runs plus chaos and shard kill/resume must all converge to the single-process reference fingerprints")
	shardOps := flag.Int("shard-ops", 100000, "with -shard: client ops per run (CI smoke trims this down)")
	metricsAddr := flag.String("metrics", "", "serve /debug/vars and /metrics on this address while soaking")
	killChildDir := flag.String("kill-child", "", "internal: run one journaled -kill worker in this directory")
	churnChildDir := flag.String("churn-child", "", "internal: run one journaled -churn coordinator in this directory")
	flag.Parse()

	if *killChildDir != "" {
		killChild(*killChildDir)
		return
	}
	if *churnChildDir != "" {
		churnChild(*churnChildDir, *seed)
		return
	}
	var reg *repro.MetricsRegistry
	if *metricsAddr != "" {
		reg = repro.NewMetricsRegistry()
		reg.Publish("spawnmerge")
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		go http.Serve(ln, reg.Handler("spawnmerge"))
		fmt.Printf("metrics on http://%s/metrics and /debug/vars\n", ln.Addr())
	}
	fmt.Printf("soaking for %v (base seed %d)\n", *duration, *seed)
	if *chaos {
		chaosSoak(*duration, *seed)
		return
	}
	if *kill {
		killSoak(*duration, *seed)
		return
	}
	if *churn {
		churnSoak(*duration, *seed, reg)
		return
	}
	if *trace {
		traceSoak(*duration, *seed, reg)
		return
	}
	if *explores {
		exploreSoak(*duration, *seed, reg)
		return
	}
	if *collabs {
		collabSoak(*duration, *seed, reg)
		return
	}
	if *mem {
		memSoak(*duration, *seed, reg)
		return
	}
	if *shard {
		shardSoak(*duration, *seed, *shardOps, reg)
		return
	}
	var agg *repro.Tracer
	if reg != nil {
		// One cumulative tracer across every probe feeds the live metrics
		// endpoint (latency histograms and span counters).
		agg = repro.NewTracer()
		reg.AddTracer("runtime", agg)
	}
	r := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)
	taskProbes, simProbes := 0, 0

	for time.Now().Before(deadline) {
		s := r.Int63()
		want := taskProbeWith(s, agg)
		for i := 0; i < 3; i++ {
			if got := taskProbe(s); got != want {
				fmt.Printf("DETERMINISM VIOLATION: task probe seed %d: %x != %x\n", s, got, want)
				os.Exit(1)
			}
		}
		taskProbes++

		if err := simProbe(r); err != nil {
			fmt.Printf("SIMULATION VIOLATION: %v\n", err)
			os.Exit(1)
		}
		simProbes++
	}
	fmt.Printf("clean: %d task probes (×4 runs each), %d simulation probes\n", taskProbes, simProbes)
}
