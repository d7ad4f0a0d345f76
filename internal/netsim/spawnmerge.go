package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mergeable"
	"repro/internal/task"
)

// RunSpawnMerge executes the simulation with the Spawn & Merge framework,
// following Listing 4 of the paper: one task per simulated host, each
// holding copies of all message queues; every host cycle starts with
// Sync(), which merges the previous cycle's operations into the parent and
// refreshes the host's copies; the parent loops on the deterministic
// MergeAll. Results are identical on every run — for both routings, which
// is the point: even the "non-deterministic" hash-routing simulation
// becomes deterministic under Spawn & Merge.
//
// Data layout passed to every host task: queues[0..H-1], traces[0..H-1]
// (per-host processing logs), then the global hop counter. Binding all of
// them to every host (20 tasks × 41 structures) is the "constant overhead"
// the paper measures: clones are O(1) and a Sync refreshes only the
// positions that moved, but every round still flushes, re-pins and — for
// whatever another host wrote — refreshes each position of each host.
func RunSpawnMerge(cfg Config) (Result, error) {
	h := cfg.Hosts
	queues := make([]*mergeable.Queue[Message], h)
	for i, initial := range cfg.initialMessages() {
		q := mergeable.NewQueue[Message]()
		for _, m := range initial {
			q.Push(m)
		}
		queues[i] = q
	}
	traces := make([]*mergeable.List[uint64], h)
	for i := range traces {
		traces[i] = mergeable.NewList[uint64]()
	}
	hops := mergeable.NewCounter(0)

	data := make([]mergeable.Mergeable, 0, 2*h+1)
	for _, q := range queues {
		data = append(data, q)
	}
	for _, tr := range traces {
		data = append(data, tr)
	}
	data = append(data, hops)

	total := cfg.TotalHops()
	var rounds int64
	start := time.Now()
	err := task.Run(func(ctx *task.Ctx, rootData []mergeable.Mergeable) error {
		handles := make([]*task.Task, h)
		for id := 0; id < h; id++ {
			handles[id] = ctx.Spawn(hostFunc(id, cfg), rootData...)
		}
		for hops.Value() < total {
			if err := ctx.MergeAll(); err != nil {
				return fmt.Errorf("netsim: merge round failed: %w", err)
			}
			rounds++
		}
		// All hops processed and merged: stop the hosts. Their next Sync
		// returns ErrAborted; any residual operations are discarded —
		// there are none, because no messages remain.
		for _, hd := range handles {
			hd.Abort()
		}
		return nil
	}, data...)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	outTraces := make([][]uint64, h)
	for i, tr := range traces {
		outTraces[i] = tr.Values()
	}
	name := "spawnmerge-nondet"
	if cfg.Routing == RouteRing {
		name = "spawnmerge-det"
	}
	return Result{
		Engine:      name,
		Config:      cfg,
		Hops:        hops.Value(),
		Elapsed:     elapsed,
		Fingerprint: fingerprintTraces(outTraces),
		Traces:      outTraces,
		Rounds:      rounds,
	}, nil
}

// hostFunc is the paper's host() function (Listing 4): sync, pop own
// queue, process, push to the destination queue.
func hostFunc(id int, cfg Config) task.Func {
	return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		h := cfg.Hosts
		queues := make([]*mergeable.Queue[Message], h)
		for i := 0; i < h; i++ {
			queues[i] = data[i].(*mergeable.Queue[Message])
		}
		trace := data[h+id].(*mergeable.List[uint64])
		hops := data[2*h].(*mergeable.Counter)

		for {
			if err := ctx.Sync(); err != nil {
				if errors.Is(err, task.ErrAborted) {
					return nil // simulation over
				}
				return err
			}
			if cfg.failAtHop > 0 && id == 0 && hops.Value() >= cfg.failAtHop {
				panic("netsim: injected host failure")
			}
			m, ok := queues[id].PopFront()
			if !ok {
				continue
			}
			digest := Work(m.Payload, cfg.Workload)
			trace.Append(digest)
			hops.Inc()
			if m.TTL > 1 {
				dest := cfg.Routing.dest(id, digest, h)
				queues[dest].Push(Message{Payload: digest, TTL: m.TTL - 1})
			}
		}
	}
}
