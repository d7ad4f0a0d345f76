package ot

// This file is the batched (run-length) transform engine: the second tier
// of the fast path started in control_fast.go. Structure logs are not just
// homogeneous in operation family — they are overwhelmingly *runs*: a task
// that appends 1000 elements records 1000 inserts at adjacent positions; a
// queue consumer records 1000 deletions at position 0. The pairwise shape
// engine still walks the full O(n·m) grid over such histories even though
// every cell does the same thing.
//
// The batched engine coalesces contiguous same-role operations into
// composite run-ops and walks the grid at run granularity. A cell of the
// run grid — one client run against one server run — is resolved by a
// closed-form rigid translation whenever the runs do not genuinely
// interleave (runCellUniform); only interleaving cells are "exploded" back
// to their constituent operations and handed to the exact pairwise
// machinery. Both engines therefore produce *identical* operation
// sequences — not merely equivalent ones — which is what the differential
// property tests and FuzzBatchedTransform pin.
//
// Correctness sketch (the TP1 argument): a uniform cell's deltas are
// derived from the GOT identities the pairwise walk implements,
//
//	T(A1·A2, B) = T(A1, B) · T(A2, T(B, A1))
//	T(A, B1·B2) = T(T(A, B1), B2)
//
// specialized to runs. For each role pair the guard condition guarantees,
// by induction over the cell's internal pairwise grid, that every client
// constituent is transformed to a rigid shift by the same delta and every
// server constituent likewise (see the case analysis in runCellUniform).
// Because a run is transformed exactly as its constituents would have
// been, TP1 of the pairwise algebra carries over unchanged.

// seqRun is a coalesced run of contiguous same-role sequence operations:
// an append/typing run (inserts at exactly adjacent positions), a pop run
// (deletions at one position) or an ascending overwrite run. pos/n is the
// composite shape as currently transformed; orig is the composite start
// position at coalescing time, so pos-orig is the rigid shift to apply to
// each constituent. lo:hi indexes the constituents in the owning side's
// arena. Uniform cells only ever translate a run (n never changes); any
// outcome that would bend a run — splits, absorption, interleaving —
// explodes it back to constituents first.
type seqRun struct {
	role   seqRole
	pos    int
	n      int
	orig   int
	lo, hi int32
}

// coalesceRuns folds a shape sequence into runs. Inserts extend a run when
// they land exactly at its current end (appends, left-to-right typing);
// deletions when they repeat the run's position (pops, deleting a block
// front-to-back); overwrites when they write the next adjacent slot.
// Anything else starts a new run, so a lone operation is a singleton run
// and the walk degrades gracefully to the pairwise grid.
func coalesceRuns(sh []shapeOp, dst []seqRun) []seqRun {
	for i := range sh {
		s := sh[i].shape
		if k := len(dst) - 1; k >= 0 {
			r := &dst[k]
			if r.role == s.role && int(r.hi) == i {
				switch s.role {
				case roleInsert, roleSet:
					if s.pos == r.pos+r.n {
						r.n += s.n
						r.hi++
						continue
					}
				case roleDelete:
					if s.pos == r.pos {
						r.n += s.n
						r.hi++
						continue
					}
				}
			}
		}
		dst = append(dst, seqRun{role: s.role, pos: s.pos, n: s.n, orig: s.pos, lo: int32(i), hi: int32(i + 1)})
	}
	return dst
}

// runCellUniform decides one cell of the run grid: client run a against
// server run b (priority side). ok reports a closed form — a rigid
// translation of a by dA and of b by dB covering every constituent — and
// is false when the runs genuinely interleave, which sends the cell to
// explodeCell.
//
// Guards are derived per role pair; (pa,na) is a's composite, (qb,mb) is
// b's. The recurring induction: when b's run starts at or before pa, its
// j-th constituent lands at qb+prefix ≤ pa+prefix, which is exactly the
// client run's base after the preceding shifts, so every cell of the
// internal grid resolves the same way (ties break toward the server).
// Symmetrically when b starts at or past the client run's end pa+na. A
// server run that starts strictly inside (pa, pa+na) interleaves.
func runCellUniform(a, b seqRun) (dA, dB int, ok bool) {
	pa, na, qb, mb := a.pos, a.n, b.pos, b.n
	switch a.role {
	case roleInsert:
		switch b.role {
		case roleInsert:
			// Ties included: the server run wins, the whole client run lands
			// after it (the parent-appends-vs-child-appends showcase).
			if qb <= pa {
				return mb, 0, true
			}
			if qb >= pa+na {
				return 0, na, true
			}
		case roleDelete:
			if qb+mb <= pa {
				return -mb, 0, true
			}
			if qb >= pa+na {
				return 0, na, true
			}
		case roleSet:
			// Overwrites never move the client inserts; they shift past them
			// exactly when they start at or after the insertion base.
			if qb >= pa {
				return 0, na, true
			}
			if qb+mb <= pa {
				return 0, 0, true
			}
		}
	case roleDelete:
		switch b.role {
		case roleInsert:
			if qb <= pa {
				return mb, 0, true
			}
			if qb >= pa+na {
				return 0, -na, true
			}
		case roleDelete:
			if qb+mb <= pa {
				return -mb, 0, true
			}
			if qb >= pa+na {
				return 0, -na, true
			}
		case roleSet:
			if qb+mb <= pa {
				return 0, 0, true
			}
			if qb >= pa+na {
				return 0, -na, true
			}
		}
	case roleSet:
		switch b.role {
		case roleInsert:
			if qb <= pa {
				return mb, 0, true
			}
			if qb >= pa+na {
				return 0, 0, true
			}
		case roleDelete:
			if qb+mb <= pa {
				return -mb, 0, true
			}
			if qb >= pa+na {
				return 0, 0, true
			}
		case roleSet:
			if qb+mb <= pa || qb >= pa+na {
				return 0, 0, true
			}
		}
	}
	return 0, 0, false
}

// batchScratch holds every buffer of one run-grid walk, reused across
// transforms via MergeScratch pooling. aCons/bCons are the constituent
// arenas: the original shapes first, explosion results appended after, so
// runs reference stable indices even as the arenas grow.
type batchScratch struct {
	aCons, bCons           []shapeOp
	aRuns, bRunsA, bRunsB  []seqRun
	xCur, xAlt, yCur, yAlt []seqRun
	xsh, ysh               []shapeOp
	aOut                   []shapeOp
}

// appendRunShapes materializes a run's constituents — original shapes plus
// the run's rigid shift — onto dst.
func appendRunShapes(dst []shapeOp, r seqRun, cons []shapeOp) []shapeOp {
	d := r.pos - r.orig
	for _, s := range cons[r.lo:r.hi] {
		s.shape.pos += d
		dst = append(dst, s)
	}
	return dst
}

// explodeCell dissolves an interleaving cell: both runs are materialized
// back to constituents and handed to the exact pairwise shape engine, and
// every resulting shape re-enters the walk as a singleton run. This is the
// split-back path — it runs only when runs genuinely interleave, and its
// output is exactly what the pairwise engine would have produced for the
// same cell.
func (sc *batchScratch) explodeCell(x, y seqRun, xDst, ysDst []seqRun) ([]seqRun, []seqRun) {
	sc.xsh = appendRunShapes(sc.xsh[:0], x, sc.aCons)
	sc.ysh = appendRunShapes(sc.ysh[:0], y, sc.bCons)
	aT, bT := transformShapeSeqs(sc.xsh, sc.ysh)
	for _, s := range aT {
		idx := int32(len(sc.aCons))
		sc.aCons = append(sc.aCons, s)
		xDst = append(xDst, seqRun{role: s.shape.role, pos: s.shape.pos, n: s.shape.n, orig: s.shape.pos, lo: idx, hi: idx + 1})
	}
	for _, s := range bT {
		idx := int32(len(sc.bCons))
		sc.bCons = append(sc.bCons, s)
		ysDst = append(ysDst, seqRun{role: s.shape.role, pos: s.shape.pos, n: s.shape.n, orig: s.shape.pos, lo: idx, hi: idx + 1})
	}
	return xDst, ysDst
}

// mutualRunVsSeq transforms the single client run x against the server run
// sequence ys and vice versa — the run-granular mirror of mutualOneVsSeq.
func (sc *batchScratch) mutualRunVsSeq(x seqRun, ys []seqRun, xDst, ysDst []seqRun) ([]seqRun, []seqRun) {
	switch len(ys) {
	case 0:
		return append(xDst, x), ysDst
	case 1:
		y := ys[0]
		if dA, dB, ok := runCellUniform(x, y); ok {
			x.pos += dA
			y.pos += dB
			return append(xDst, x), append(ysDst, y)
		}
		return sc.explodeCell(x, y, xDst, ysDst)
	}
	var xb, xb2 [4]seqRun
	xList := append(xb[:0], x)
	xAlt := xb2[:0]
	for _, yk := range ys {
		var yb, yb2 [4]seqRun
		ykList := append(yb[:0], yk)
		ykAlt := yb2[:0]
		xAlt = xAlt[:0]
		for _, xi := range xList {
			ykAlt = ykAlt[:0]
			xAlt, ykAlt = sc.mutualRunVsSeq(xi, ykList, xAlt, ykAlt)
			ykList, ykAlt = ykAlt, ykList
		}
		xList, xAlt = xAlt, xList
		ysDst = append(ysDst, ykList...)
	}
	return append(xDst, xList...), ysDst
}

// transformRuns is transformShapeSeqs at run granularity: it coalesces
// both shape sequences into runs, walks the run grid left to right with
// the same ping-pong discipline, and leaves the transformed client shapes
// in sc.aOut and the transformed server runs in the returned slice (the
// caller materializes them only when it needs the server side). The output
// is operation-for-operation identical to transformShapeSeqs.
func (sc *batchScratch) transformRuns(aS, bS []shapeOp) (bFinal []seqRun) {
	sc.aCons = append(sc.aCons[:0], aS...)
	sc.bCons = append(sc.bCons[:0], bS...)
	sc.aRuns = coalesceRuns(sc.aCons, sc.aRuns[:0])
	bCur := coalesceRuns(sc.bCons, sc.bRunsA[:0])
	bNext := sc.bRunsB[:0]
	sc.aOut = sc.aOut[:0]
	xCur, xAlt := sc.xCur[:0], sc.xAlt[:0]
	yCur, yAlt := sc.yCur[:0], sc.yAlt[:0]
	for ai := range sc.aRuns {
		xCur = append(xCur[:0], sc.aRuns[ai])
		bNext = bNext[:0]
		for bi := range bCur {
			yCur = append(yCur[:0], bCur[bi])
			xAlt = xAlt[:0]
			for xi := 0; xi < len(xCur); xi++ {
				yAlt = yAlt[:0]
				xAlt, yAlt = sc.mutualRunVsSeq(xCur[xi], yCur, xAlt, yAlt)
				yCur, yAlt = yAlt, yCur
			}
			xCur, xAlt = xAlt, xCur
			bNext = append(bNext, yCur...)
		}
		for _, r := range xCur {
			sc.aOut = appendRunShapes(sc.aOut, r, sc.aCons)
		}
		bCur, bNext = bNext, bCur
	}
	// Hand the rotating buffers back so the next walk reuses whatever they
	// grew to, regardless of how many swaps happened.
	sc.xCur, sc.xAlt, sc.yCur, sc.yAlt = xCur, xAlt, yCur, yAlt
	sc.bRunsA, sc.bRunsB = bCur, bNext
	return bCur
}
