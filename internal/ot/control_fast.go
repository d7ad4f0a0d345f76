package ot

// This file is the allocation-disciplined fast path of the transformation
// control algorithm for the sequence families (list/queue and text). The
// generic recursion in control.go transforms through the Op interface: every
// pairwise transform boxes its results into fresh []Op slices, which makes a
// quadratic n×m transform allocate O(n·m) interface slices. Structure logs
// are homogeneous, so almost every real transform lands here instead: the
// operations are unwrapped once into payload-free shapes (shapeOp), the
// whole recursion runs on inline-array pairwise results, and operations are
// boxed back only at the end — reusing the original interface value whenever
// a shape comes out of the transformation unchanged.
//
// TestShapeFastPathMatchesGeneric pins the equivalence against the generic
// recursion under random concurrent histories.

// shapeOp is one sequence operation unwrapped for transformation: the
// position/length skeleton plus the original operation, which carries the
// payload (insert elements, set value, text) and is reused verbatim when
// the shape survives unchanged.
type shapeOp struct {
	shape seqShape
	src   Op
}

// shapeOpOf unwraps a sequence- or text-family operation. ok is false for
// any other family (trees, scalars, user-defined operations), which sends
// the caller to the generic recursion.
func shapeOpOf(op Op) (shapeOp, bool) {
	switch v := op.(type) {
	case SeqInsert:
		return shapeOp{shape: ins(v.Pos, len(v.Elems)), src: op}, true
	case SeqDelete:
		return shapeOp{shape: del(v.Pos, v.N), src: op}, true
	case SeqSet:
		return shapeOp{shape: set(v.Pos), src: op}, true
	case TextInsert:
		return shapeOp{shape: ins(v.Pos, len([]rune(v.Text))), src: op}, true
	case TextDelete:
		return shapeOp{shape: del(v.Pos, v.N), src: op}, true
	}
	return shapeOp{}, false
}

// materialize boxes a transformed shape back into a concrete operation. The
// original interface value is returned untouched when the shape is
// unchanged — the common case (most operations pass each other without
// conflict), and the reason the fast path allocates almost nothing.
func (s shapeOp) materialize() Op {
	switch v := s.src.(type) {
	case SeqInsert:
		if s.shape.pos == v.Pos {
			return s.src
		}
		return SeqInsert{Pos: s.shape.pos, Elems: v.Elems}
	case SeqDelete:
		if s.shape.pos == v.Pos && s.shape.n == v.N {
			return s.src
		}
		return SeqDelete{Pos: s.shape.pos, N: s.shape.n}
	case SeqSet:
		if s.shape.pos == v.Pos {
			return s.src
		}
		return SeqSet{Pos: s.shape.pos, Elem: v.Elem}
	case TextInsert:
		if s.shape.pos == v.Pos {
			return s.src
		}
		return TextInsert{Pos: s.shape.pos, Text: v.Text}
	case TextDelete:
		if s.shape.pos == v.Pos && s.shape.n == v.N {
			return s.src
		}
		return TextDelete{Pos: s.shape.pos, N: s.shape.n}
	}
	return s.src
}

// appendShapeResult expands one pairwise result into dst, dropping absorbed
// operations and carrying src through splits.
func appendShapeResult(dst []shapeOp, src Op, r seqResult) []shapeOp {
	for _, sh := range r.shapes[:r.n] {
		dst = append(dst, shapeOp{shape: sh, src: src})
	}
	return dst
}

// transformShapeSeqs is TransformSeqs on unwrapped shapes: same GOT
// identities, same priority convention (b wins ties), but iterative instead
// of recursive, so the O(n·m) grid walk reuses four ping-pong buffers
// instead of concatenating fresh slices at every recursion level. The only
// allocations on the common path are the two result slices and the scratch
// buffers themselves.
//
// The walk consumes a left to right. xCur holds the current a-op's
// transformed forms (usually one, more after splits); bCur holds b as
// rewritten by the a-prefix consumed so far. One cell of the grid — x's
// forms against a single b-op — is delegated to mutualOneVsSeq per form.
func transformShapeSeqs(a, b []shapeOp) (aT, bT []shapeOp) {
	if len(a) == 0 || len(b) == 0 {
		return a, b
	}
	aOut := make([]shapeOp, 0, len(a)+2)
	bCur := append(make([]shapeOp, 0, len(b)+2), b...)
	bNext := make([]shapeOp, 0, len(b)+2)
	xCur := make([]shapeOp, 0, 8)
	xAlt := make([]shapeOp, 0, 8)
	yCur := make([]shapeOp, 0, 8)
	yAlt := make([]shapeOp, 0, 8)
	for _, x := range a {
		xCur = append(xCur[:0], x)
		bNext = bNext[:0]
		for _, y := range bCur {
			// Mutually transform the sequence xCur against the single op y:
			// each form xi sees y as rewritten by the forms before it
			// (T(B, A1·A2) identity), and y's forms accumulate the rewrites
			// (T(A1·A2, B) identity).
			yCur = append(yCur[:0], y)
			xAlt = xAlt[:0]
			for _, xi := range xCur {
				yAlt = yAlt[:0]
				xAlt, yAlt = mutualOneVsSeq(xi, yCur, xAlt, yAlt)
				yCur, yAlt = yAlt, yCur
			}
			xCur, xAlt = xAlt, xCur
			bNext = append(bNext, yCur...)
		}
		aOut = append(aOut, xCur...)
		bCur, bNext = bNext, bCur
	}
	return aOut, bCur
}

// mutualOneVsSeq transforms the single operation x against the sequence ys
// and vice versa, appending x's resulting forms to xDst and ys's to ysDst.
// Splits make either side a sequence mid-flight; the recursion bottoms out
// at the allocation-free single-single pairwise transform, so the nested
// buffers (only needed on the rare multi-y path) stay on the stack in
// practice.
func mutualOneVsSeq(x shapeOp, ys []shapeOp, xDst, ysDst []shapeOp) ([]shapeOp, []shapeOp) {
	switch len(ys) {
	case 0:
		return append(xDst, x), ysDst
	case 1:
		ra := transformSeqShape(x.shape, ys[0].shape, true)
		rb := transformSeqShape(ys[0].shape, x.shape, false)
		return appendShapeResult(xDst, x.src, ra), appendShapeResult(ysDst, ys[0].src, rb)
	}
	// Multi-op ys (an earlier split): x passes over ys left to right; each
	// yk is rewritten against x's forms as they stand at its turn.
	var xb, xb2 [4]shapeOp
	xList := append(xb[:0], x)
	xAlt := xb2[:0]
	for _, yk := range ys {
		var yb, yb2 [4]shapeOp
		ykList := append(yb[:0], yk)
		ykAlt := yb2[:0]
		xAlt = xAlt[:0]
		for _, xi := range xList {
			ykAlt = ykAlt[:0]
			xAlt, ykAlt = mutualOneVsSeq(xi, ykList, xAlt, ykAlt)
			ykList, ykAlt = ykAlt, ykList
		}
		xList, xAlt = xAlt, xList
		ysDst = append(ysDst, ykList...)
	}
	return append(xDst, xList...), ysDst
}

// allSeqSets reports whether every operation is a SeqSet.
func allSeqSets(ops []Op) bool {
	for _, op := range ops {
		if _, ok := op.(SeqSet); !ok {
			return false
		}
	}
	return true
}

// transformSetFastInto handles client/server sequences consisting solely
// of SeqSet operations in O(|client|+|server|): overwrites never reposition
// anything, so a client set either survives verbatim or is absorbed by a
// server set of the same slot (the server has priority), and the server
// sequence is never modified. Surviving operations are appended onto dst
// (which may be an arena; it is guaranteed untouched when ok is false); a
// nil dst allocates lazily. Mirrors transformAgainstSet with
// bPriority=true, pinned by TestSetFastPathMatchesGeneric.
func transformSetFastInto(client, server, dst []Op) ([]Op, bool) {
	if len(client) == 0 || len(server) == 0 {
		return client, true
	}
	if !allSeqSets(client) || !allSeqSets(server) {
		return dst, false
	}
	// Index the server's written slots; linear scan for tiny histories to
	// skip the map allocation.
	const linearMax = 8
	var written map[int]struct{}
	if len(server) > linearMax {
		written = make(map[int]struct{}, len(server))
		for _, op := range server {
			written[op.(SeqSet).Pos] = struct{}{}
		}
	}
	absorbed := func(pos int) bool {
		if written != nil {
			_, hit := written[pos]
			return hit
		}
		for _, op := range server {
			if op.(SeqSet).Pos == pos {
				return true
			}
		}
		return false
	}
	out := dst
	for _, op := range client {
		if !absorbed(op.(SeqSet).Pos) {
			out = append(out, op)
		}
	}
	return out, true
}
