// Package netsim implements the paper's evaluation workload (Section III):
// a simulation of a network of hosts that communicate by message passing.
// Each host pops a message from its incoming queue, performs a
// configurable amount of cryptographic work (iterated SHA-1 hashing, the
// "host workload l"), derives the next recipient, and forwards the
// message until its TTL is exhausted.
//
// Four engines reproduce the paper's four test setups:
//
//   - Conventional non-deterministic: one thread (goroutine) per host with
//     a locked incoming queue; the destination is derived from the message
//     payload, so several hosts may race to push into the same queue.
//   - Conventional deterministic: same substrate, but each host forwards
//     only to the next-higher ID (ring), eliminating the races.
//   - Spawn & Merge, hash routing: Listing 4 — one task per host, copies
//     of all queues, Sync each cycle, parent MergeAll per cycle. The
//     "non-deterministic" routing still yields deterministic results.
//   - Spawn & Merge, ring routing: the deterministic-simulation variant.
package netsim

import (
	"crypto/sha1"
	"encoding/binary"
)

// Message is one simulated network packet. Payload evolves at every hop
// (it becomes the SHA-1 digest of the previous payload), which is how the
// paper makes routing content-dependent; TTL counts the remaining hops.
type Message struct {
	Payload uint64
	TTL     int
}

// Work performs the host workload: one SHA-1 of the payload (always —
// routing and payload evolution need a digest even at l = 0) plus l extra
// iterations, and returns the first eight digest bytes. l is the knob the
// paper sweeps on the x-axis of Figure 3.
func Work(payload uint64, l int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], payload)
	d := sha1.Sum(buf[:])
	for i := 0; i < l; i++ {
		d = sha1.Sum(d[:])
	}
	return binary.LittleEndian.Uint64(d[:8])
}

// Routing selects how a host derives a message's next recipient.
type Routing int

const (
	// RouteHash derives the destination from the message digest — the
	// paper's "non-deterministic" simulation (the label refers to the
	// conventional implementation's races; under Spawn & Merge even this
	// routing produces deterministic results).
	RouteHash Routing = iota
	// RouteRing forwards to the next-higher host ID — the paper's
	// deterministic simulation setup.
	RouteRing
)

// String returns the routing's name as used in engine labels.
func (r Routing) String() string {
	if r == RouteRing {
		return "ring"
	}
	return "hash"
}

// dest computes the next recipient for a digest processed by host id.
func (r Routing) dest(id int, digest uint64, hosts int) int {
	if r == RouteRing {
		return (id + 1) % hosts
	}
	return int(digest % uint64(hosts))
}

// Config parameterizes one simulation run. The zero value is not useful;
// use DefaultConfig for the paper's setup.
type Config struct {
	Hosts    int     // number of simulated hosts (paper: 20)
	Messages int     // initial messages distributed round-robin (paper: 100)
	TTL      int     // hops per message (paper: 100)
	Workload int     // SHA-1 iterations per hop, the l axis (paper: 0..10000)
	Routing  Routing // hash (non-det setups) or ring (det setups)
	Seed     uint64  // seeds the initial payloads

	// Hotspot changes the initial distribution: all messages start on
	// host 0 instead of round-robin. With ring routing this creates the
	// clustering the paper blames for the det-vs-nondet gap in its purest
	// form: one host's queue drains over many consecutive cycles.
	Hotspot bool

	// failAtHop, when positive, makes host 0 of the Spawn & Merge engines
	// panic once the merged hop counter reaches the value — test-only
	// failure injection for the runtime's abort-and-unwind path.
	failAtHop int64
}

// DefaultConfig returns the paper's evaluation parameters: 20 hosts, 100
// messages, TTL 100.
func DefaultConfig() Config {
	return Config{Hosts: 20, Messages: 100, TTL: 100, Workload: 0, Routing: RouteHash, Seed: 1}
}

// TotalHops returns the exact number of message processings a run
// performs: every message is handled once per TTL unit.
func (c Config) TotalHops() int64 { return int64(c.Messages) * int64(c.TTL) }

// initialMessages builds the deterministic starting distribution: message
// i goes to host i mod Hosts (or host 0 with Hotspot) with a seed-derived
// payload.
func (c Config) initialMessages() [][]Message {
	queues := make([][]Message, c.Hosts)
	for i := 0; i < c.Messages; i++ {
		m := Message{Payload: splitmix64(c.Seed + uint64(i)), TTL: c.TTL}
		h := i % c.Hosts
		if c.Hotspot {
			h = 0
		}
		queues[h] = append(queues[h], m)
	}
	return queues
}

// splitmix64 is the standard seed scrambler, so nearby seeds produce
// unrelated payloads.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
