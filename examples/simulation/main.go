// Simulation runs the paper's Listing 4: a network of hosts exchanging
// messages, one Spawn & Merge task per host, every host cycle starting
// with Sync() and the parent merging all hosts deterministically with
// MergeAll. Although message routing is derived from message content
// ("inherently prone to race conditions when using common synchronization
// primitives"), the simulation produces the identical result on every run.
//
//	go run ./examples/simulation [-hosts 4] [-messages 12] [-ttl 5] [-runs 3]
package main

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"

	"repro"
)

type message struct {
	Payload uint64
	TTL     int
}

// hash advances a payload by one SHA-1 round — the simulation's "work".
func hash(payload uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], payload)
	d := sha1.Sum(buf[:])
	return binary.LittleEndian.Uint64(d[:8])
}

// host is Listing 4's host(): sync, pop the own queue, process, forward.
func host(id, hosts int) repro.Func {
	return func(ctx *repro.Ctx, data []repro.Mergeable) error {
		hops := data[hosts].(*repro.Counter)
		for {
			if err := ctx.Sync(); err != nil {
				if errors.Is(err, repro.ErrAborted) {
					return nil
				}
				return err
			}
			queue := data[id].(*repro.Queue[message])
			m, ok := queue.PopFront()
			if !ok {
				continue
			}
			digest := hash(m.Payload)
			hops.Inc()
			if m.TTL > 1 {
				dest := int(digest % uint64(hosts)) // content-derived routing
				data[dest].(*repro.Queue[message]).Push(message{Payload: digest, TTL: m.TTL - 1})
			}
		}
	}
}

// simulate runs one full simulation and returns a fingerprint of the
// final queues plus the processed hop count.
func simulate(hosts, messages, ttl int) (uint64, int64, error) {
	data := make([]repro.Mergeable, 0, hosts+1)
	// Every host cycle copies all queues on Sync; the queue's
	// copy-on-write storage makes each copy O(1).
	queues := make([]*repro.Queue[message], hosts)
	for i := range queues {
		queues[i] = repro.NewQueue[message]()
		data = append(data, queues[i])
	}
	for i := 0; i < messages; i++ {
		queues[i%hosts].Push(message{Payload: uint64(1 + i), TTL: ttl})
	}
	hops := repro.NewCounter(0)
	data = append(data, hops)
	total := int64(messages) * int64(ttl)

	err := repro.Run(func(ctx *repro.Ctx, d []repro.Mergeable) error {
		handles := make([]*repro.Task, hosts)
		for i := 0; i < hosts; i++ {
			handles[i] = ctx.Spawn(host(i, hosts), d...)
		}
		for hops.Value() < total {
			if err := ctx.MergeAll(); err != nil {
				return err
			}
		}
		for _, h := range handles {
			h.Abort()
		}
		return nil
	}, data...)
	if err != nil {
		return 0, 0, err
	}

	fps := make([]uint64, 0, hosts+1)
	for _, q := range queues {
		fps = append(fps, q.Fingerprint())
	}
	fps = append(fps, hops.Fingerprint())
	return combine(fps), hops.Value(), nil
}

func combine(fps []uint64) uint64 {
	var h uint64 = 1469598103934665603
	for _, fp := range fps {
		for i := 0; i < 8; i++ {
			h ^= fp >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func main() {
	hosts := flag.Int("hosts", 4, "simulated hosts")
	messages := flag.Int("messages", 12, "initial messages")
	ttl := flag.Int("ttl", 5, "hops per message")
	runs := flag.Int("runs", 3, "repetitions to demonstrate determinism")
	flag.Parse()

	fmt.Printf("Listing 4: %d hosts, %d messages, TTL %d — content-routed, merged with MergeAll\n",
		*hosts, *messages, *ttl)
	var first uint64
	for r := 1; r <= *runs; r++ {
		fp, hops, err := simulate(*hosts, *messages, *ttl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  run %d: %d hops processed, state fingerprint %016x\n", r, hops, fp)
		if r == 1 {
			first = fp
		} else if fp != first {
			log.Fatal("non-deterministic simulation result!")
		}
	}
	fmt.Println("identical fingerprints: the racy-looking simulation is deterministic under Spawn & Merge")
}
