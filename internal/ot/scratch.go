package ot

// Per-merge scratch arenas. A merge transforms every structure's pending
// operations against the parent's history; done naively each transform
// allocates unwrap buffers, worklists and a result slice. MergeScratch owns
// all of them and is reused across merges (the task runtime holds one per
// merge scratch pool entry; the package-level TransformAgainst borrows one
// from an internal pool), so the steady-state transform path allocates only
// the operations that genuinely changed shape.
//
// Ownership rules:
//
//   - Result slices returned by (*MergeScratch).TransformAgainst are carved
//     from the scratch arena and remain valid until the next Reset. Callers
//     that outlive the merge must copy (Log.Commit already does).
//   - Operation values themselves are ordinary heap values, never
//     arena-owned: committed histories alias them indefinitely.
//   - The package-level TransformAgainst returns caller-owned slices and is
//     safe to use without any lifetime discipline.

import "sync"

// MergeScratch is a reusable transform arena. The zero value is ready to
// use. Not safe for concurrent use.
type MergeScratch struct {
	batch  batchScratch
	aS, bS []shapeOp
	arena  []Op
}

// Reset invalidates every slice previously returned by this scratch's
// TransformAgainst and recycles the arena for the next merge. References
// held by the arena are cleared so recycled scratches do not pin merged
// payloads.
func (sc *MergeScratch) Reset() {
	clear(sc.arena)
	sc.arena = sc.arena[:0]
}

var scratchPool = sync.Pool{New: func() any { return &MergeScratch{} }}

// toShapes unwraps both sequences into the scratch's unwrap buffers. ok is
// false when any operation is not shape-representable.
func (sc *MergeScratch) toShapes(a, b []Op) (aS, bS []shapeOp, ok bool) {
	aS = sc.aS[:0]
	for _, op := range a {
		s, sOK := shapeOpOf(op)
		if !sOK {
			return nil, nil, false
		}
		aS = append(aS, s)
	}
	bS = sc.bS[:0]
	for _, op := range b {
		s, sOK := shapeOpOf(op)
		if !sOK {
			return nil, nil, false
		}
		bS = append(bS, s)
	}
	sc.aS, sc.bS = aS, bS
	return aS, bS, true
}

// carve materializes transformed shapes into a result slice: a fresh
// caller-owned slice when owned, an arena window valid until Reset
// otherwise. Empty input yields nil either way.
func (sc *MergeScratch) carve(shapes []shapeOp, owned bool) []Op {
	if len(shapes) == 0 {
		return nil
	}
	if owned {
		out := make([]Op, len(shapes))
		for i, s := range shapes {
			out[i] = s.materialize()
		}
		return out
	}
	start := len(sc.arena)
	for _, s := range shapes {
		sc.arena = append(sc.arena, s.materialize())
	}
	return sc.arena[start:len(sc.arena):len(sc.arena)]
}

// TransformAgainst is TransformAgainst with arena-backed results: the
// returned slice is owned by the scratch and valid until the next Reset.
// The merge loop commits (copies) transformed operations immediately, so
// the window lifetime never escapes a merge.
func (sc *MergeScratch) TransformAgainst(client, server []Op) []Op {
	return transformAgainstScratch(client, server, sc, false)
}

// transformAgainstScratch is the shared core of the package-level and
// arena TransformAgainst. owned selects fresh result slices over arena
// windows.
func transformAgainstScratch(client, server []Op, sc *MergeScratch, owned bool) []Op {
	if len(client) == 0 || len(server) == 0 {
		return client
	}
	if len(client) == 1 && len(server) == 1 {
		// Single grid cell, checked before the family scans: one
		// closed-form pairwise transform, and the untouched-client case
		// returns the input slice itself. The smallest merges — one
		// coalesced run against one coalesced run — resolve here without
		// touching the unwrap buffers. Identical to the general walk by
		// construction (the walk's cells run the same transform).
		if a, okA := shapeOpOf(client[0]); okA {
			if b, okB := shapeOpOf(server[0]); okB {
				r := transformSeqShape(a.shape, b.shape, true)
				if r.n == 1 && r.shapes[0] == a.shape {
					return client
				}
				var buf [2]shapeOp
				out := buf[:0]
				for _, sh := range r.shapes[:r.n] {
					out = append(out, shapeOp{shape: sh, src: client[0]})
				}
				return sc.carve(out, owned)
			}
		}
	}
	var dst []Op
	if !owned {
		dst = sc.arena
	}
	if out, ok := transformScalarFastInto(client, server, dst); ok {
		return sc.window(out, owned)
	}
	if out, ok := transformSetFastInto(client, server, dst); ok {
		return sc.window(out, owned)
	}
	if aS, bS, ok := sc.toShapes(client, server); ok {
		sc.batch.transformRuns(aS, bS)
		return sc.carve(sc.batch.aOut, owned)
	}
	aT, _ := transformSeqsGeneric(client, server)
	return aT
}

// window finalizes a fast-path result produced by appending onto dst: in
// arena mode the appended suffix becomes the result window; in owned mode
// the slice is already caller-owned.
func (sc *MergeScratch) window(out []Op, owned bool) []Op {
	if owned {
		return out
	}
	start := len(sc.arena)
	sc.arena = out
	return sc.arena[start:len(sc.arena):len(sc.arena)]
}
