// Package shard provides the building blocks of the sharded collab
// spine: a consistent-hash ring mapping document ids onto shard ids, a
// CRC-framed batch wire format that coexists with the line protocol, and
// a frame-based operation log that makes a shard incarnation resumable
// after SIGKILL.
//
// The package is deliberately protocol-agnostic: it knows nothing about
// sessions, documents or merge loops. internal/collab composes these
// pieces into the routed multi-shard document service.
package shard

import (
	"fmt"
	"sort"
)

// DefaultReplicas is the number of virtual points each shard contributes
// to the ring. 64 points per shard keeps the worst-case ownership skew
// under ~20% for small clusters while the point array stays cache-warm.
const DefaultReplicas = 64

// ringPoint is one virtual point: a hash position owned by a shard id.
type ringPoint struct {
	hash uint64
	id   int
}

// Ring is an immutable consistent-hash ring at one membership epoch.
// Lookups walk a sorted point array with a hand-rolled binary search so
// the steady-state routing path performs zero allocations.
//
// Mutation is by replacement: membership changes build a new Ring at the
// next epoch and swap it in under the router's lock, which is what makes
// the epoch fence meaningful — a request stamped with an old epoch can
// be recognized by any shard no matter how stale its sender's view was.
type Ring struct {
	epoch  uint64
	ids    []int // member shard ids, sorted
	points []ringPoint
}

// New builds a ring over the given shard ids at the given epoch.
// replicas <= 0 means DefaultReplicas. ids may arrive in any order and
// are defensively copied.
func New(ids []int, replicas int, epoch uint64) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	r := &Ring{
		epoch:  epoch,
		ids:    sorted,
		points: make([]ringPoint, 0, len(sorted)*replicas),
	}
	var key []byte
	for _, id := range sorted {
		for v := 0; v < replicas; v++ {
			key = fmt.Appendf(key[:0], "shard-%d/%d", id, v)
			r.points = append(r.points, ringPoint{hash: mix64(fnv64aBytes(key)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id // tie-break deterministically
	})
	return r
}

// Epoch returns the membership epoch this ring was built at.
func (r *Ring) Epoch() uint64 { return r.epoch }

// IDs returns the member shard ids, sorted. The slice is a copy.
func (r *Ring) IDs() []int { return append([]int(nil), r.ids...) }

// Len returns the number of member shards.
func (r *Ring) Len() int { return len(r.ids) }

// Contains reports whether id is a ring member.
func (r *Ring) Contains(id int) bool {
	i := sort.SearchInts(r.ids, id)
	return i < len(r.ids) && r.ids[i] == id
}

// Owner returns the shard id owning doc, or -1 on an empty ring. The
// lookup is allocation-free: an inline FNV-1a over the doc id followed
// by a binary search for the first point at or past the hash (wrapping
// to the first point).
func (r *Ring) Owner(doc string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := mix64(fnv64aString(doc))
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap: past the last point, the first point owns
	}
	return r.points[lo].id
}

// mix64 is the murmur3 finalizer: FNV-1a alone barely avalanches short,
// similar keys ("shard-0/1" vs "shard-0/2" land adjacent), which leaves
// enormous ownership arcs. The finalizer spreads every input bit across
// the word, and ring positions become uniform.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnv64aString is FNV-1a over a string without conversions or
// allocations.
func fnv64aString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

func fnv64aBytes(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 0x100000001b3
	}
	return h
}
