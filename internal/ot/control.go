package ot

// This file is the transformation control algorithm: it decides which
// transformation function is applied to which pair of concurrent
// operations, composing the pairwise transforms of the operation algebras
// into sequence-against-sequence transformation.
//
// In the Spawn & Merge runtime every mergeable structure has a single,
// linear committed history. A child's operations are always transformed
// against one contiguous suffix of that history, so the control algorithm
// only needs the convergence property TP1
//
//	apply(apply(S, a), b') == apply(apply(S, b), a')
//
// of the pairwise transforms; TP2 (order independence of transformation
// paths) is never exercised. TP1 is enforced by property tests for every
// operation algebra.

// TransformPair transforms two concurrent operations against each other.
// It returns a' (a rewritten to apply after b) and b' (b rewritten to
// apply after a). By convention b is the priority side: when the two
// operations conflict irreconcilably, b wins.
func TransformPair(a, b Op) (aT, bT []Op) {
	return a.Transform(b, true), b.Transform(a, false)
}

// TransformSeqs transforms two concurrent operation sequences against each
// other. Both sequences must be based on the same initial state. It returns
//
//	aT — a rewritten to apply after all of b, and
//	bT — b rewritten to apply after all of a,
//
// such that apply(apply(S, a...), bT...) == apply(apply(S, b...), aT...).
// As in TransformPair, b is the priority side.
//
// The decomposition uses the standard identities
//
//	T(A1·A2, B) = T(A1, B) · T(A2, T(B, A1))
//	T(A, B1·B2) = T(T(A, B1), B2)
//
// so only pairwise transforms are ever computed. An operation may split
// (one deletion crossing an insertion becomes two) or be absorbed (empty
// result); the recursion handles both because intermediate results are
// themselves sequences.
//
// Homogeneous sequence-family inputs (every log of a list, queue or text
// structure) are dispatched to the shape-based fast path, which runs the
// same recursion without boxing intermediate operations; heterogeneous or
// tree/scalar inputs use the generic recursion below.
func TransformSeqs(a, b []Op) (aT, bT []Op) {
	if len(a) == 0 || len(b) == 0 {
		return a, b
	}
	if len(a) == 1 && len(b) == 1 {
		// A single pairwise transform needs none of the fast path's scratch
		// buffers; call it directly.
		return TransformPair(a[0], b[0])
	}
	if aS, bS, ok := toShapeOps(a, b); ok {
		// Run-length engine (batch.go): identical output to the pairwise
		// transformShapeSeqs, O(runs) walk.
		sc := scratchPool.Get().(*MergeScratch)
		bRuns := sc.batch.transformRuns(aS, bS)
		aT = materializeShapes(sc.batch.aOut)
		bSh := sc.batch.xsh[:0]
		for _, r := range bRuns {
			bSh = appendRunShapes(bSh, r, sc.batch.bCons)
		}
		sc.batch.xsh = bSh
		bT = materializeShapes(bSh)
		scratchPool.Put(sc)
		return aT, bT
	}
	return transformSeqsGeneric(a, b)
}

// transformSeqsGeneric is the interface-typed control recursion, kept as
// the fallback for operation families without a shape form (trees,
// scalars, user-defined operations) and as the oracle the fast-path
// equivalence tests compare against.
func transformSeqsGeneric(a, b []Op) (aT, bT []Op) {
	switch {
	case len(a) == 0 || len(b) == 0:
		return a, b
	case len(a) == 1 && len(b) == 1:
		return TransformPair(a[0], b[0])
	case len(a) > 1:
		a1, bMid := transformSeqsGeneric(a[:1], b)
		a2, bFinal := transformSeqsGeneric(a[1:], bMid)
		return concatOps(a1, a2), bFinal
	default: // len(a) == 1, len(b) > 1
		aMid, b1 := transformSeqsGeneric(a, b[:1])
		aFinal, b2 := transformSeqsGeneric(aMid, b[1:])
		return aFinal, concatOps(b1, b2)
	}
}

// TransformAgainst rewrites client so it applies after server. server is
// the priority side; this is the exact call the merge step performs with
// the child's local operations as client and the parent's committed history
// suffix as server.
//
// For the scalar families (counter, map, set, register) it takes an
// O(|client|+|server|) fast path: those transforms never reposition
// anything, and the server sequence is never modified by client
// operations, so every client operation transforms independently — it
// either survives unchanged or is absorbed by a matching server
// operation. Pure-overwrite sequence histories (SeqSet only on both
// sides) take the analogous linear path, since overwrites never
// reposition anything. Other sequence and tree families use the quadratic
// recursion. The property tests TestScalarFastPathMatchesGeneric and
// TestSetFastPathMatchesGeneric pin the equivalences.
func TransformAgainst(client, server []Op) []Op {
	if len(client) == 0 || len(server) == 0 {
		return client
	}
	sc := scratchPool.Get().(*MergeScratch)
	out := transformAgainstScratch(client, server, sc, true)
	scratchPool.Put(sc)
	return out
}

// transformScalarFast handles client/server sequences drawn entirely from
// the scalar families. ok is false when any operation is positional (or
// unknown), in which case the caller falls back to the general algorithm.
func transformScalarFast(client, server []Op) ([]Op, bool) {
	return transformScalarFastInto(client, server, nil)
}

// transformScalarFastInto is transformScalarFast appending surviving
// operations onto dst (which may be an arena; it is guaranteed untouched
// when ok is false). A nil dst allocates lazily.
func transformScalarFastInto(client, server, dst []Op) ([]Op, bool) {
	if len(client) == 0 || len(server) == 0 {
		return client, true
	}
	scalar := func(ops []Op) bool {
		for _, op := range ops {
			switch op.Kind() {
			case KindCounterAdd, KindMapSet, KindMapDelete, KindSetAdd, KindSetRemove, KindRegisterSet:
			default:
				return false
			}
		}
		return true
	}
	if !scalar(client) || !scalar(server) {
		return nil, false
	}

	// Index the server's absorbing operations. The rules mirror the
	// Transform methods in scalar.go with otherPriority = true.
	mapTouched := map[any]bool{} // MapSet or MapDelete: absorbs client MapSet
	mapSet := map[any]bool{}     // MapSet: absorbs client MapDelete
	setRemoved := map[any]bool{} // SetRemove: absorbs client SetAdd
	setAdded := map[any]bool{}   // SetAdd: absorbs client SetRemove
	regWritten := false          // RegisterSet: absorbs client RegisterSet
	for _, op := range server {
		switch v := op.(type) {
		case MapSet:
			mapTouched[v.Key] = true
			mapSet[v.Key] = true
		case MapDelete:
			mapTouched[v.Key] = true
		case SetAdd:
			setAdded[v.Elem] = true
		case SetRemove:
			setRemoved[v.Elem] = true
		case RegisterSet:
			regWritten = true
		}
	}

	out := dst
	for _, op := range client {
		switch v := op.(type) {
		case MapSet:
			if mapTouched[v.Key] {
				continue
			}
		case MapDelete:
			if mapSet[v.Key] {
				continue
			}
		case SetAdd:
			if setRemoved[v.Elem] {
				continue
			}
		case SetRemove:
			if setAdded[v.Elem] {
				continue
			}
		case RegisterSet:
			if regWritten {
				continue
			}
		}
		out = append(out, op)
	}
	return out, true
}

func concatOps(a, b []Op) []Op {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Op, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}
