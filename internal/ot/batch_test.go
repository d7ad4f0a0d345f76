package ot

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// opsEqual is exact operation-list equality with nil and empty identified
// (both engines return nil for fully absorbed sides, but pass-through
// cases can surface the caller's empty non-nil slice).
func opsEqual(a, b []Op) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// pairwiseSeqs is TransformSeqs with the pairwise shape engine in place of
// the run-length one: the oracle the batched engine must match op for op.
func pairwiseSeqs(a, b []Op) (aT, bT []Op) {
	if len(a) == 0 || len(b) == 0 {
		return a, b
	}
	aS, bS, ok := toShapeOps(a, b)
	if !ok {
		return transformSeqsGeneric(a, b)
	}
	aR, bR := transformShapeSeqs(aS, bS)
	return materializeShapes(aR), materializeShapes(bR)
}

// checkEngineAgreement asserts the batched and pairwise engines produce
// operation-for-operation identical transforms for (a, b), and that the
// transforms actually converge (TP1) with identical fingerprints.
func checkEngineAgreement(t *testing.T, base []any, a, b []Op) bool {
	t.Helper()
	aB, bB := TransformSeqs(a, b)
	aP, bP := pairwiseSeqs(a, b)
	if !opsEqual(aB, aP) || !opsEqual(bB, bP) {
		t.Logf("engines disagree on TransformSeqs:\n  a=%v b=%v\n  batched  a'=%v b'=%v\n  pairwise a'=%v b'=%v",
			a, b, aB, bB, aP, bP)
		return false
	}
	if gB := TransformAgainst(a, b); !opsEqual(gB, aP) {
		t.Logf("engines disagree on TransformAgainst:\n  a=%v b=%v\n  batched %v\n  pairwise %v", a, b, gB, aP)
		return false
	}
	left, errL := applyAll(base, b)
	if errL == nil {
		left, errL = applyAll(left, aB)
	}
	right, errR := applyAll(base, a)
	if errR == nil {
		right, errR = applyAll(right, bB)
	}
	if errL != nil || errR != nil {
		t.Logf("transformed ops failed to apply: a=%v b=%v: %v / %v", a, b, errL, errR)
		return false
	}
	if !equalStates(left, right) {
		t.Logf("TP1 violated under batched engine: a=%v b=%v: %v != %v", a, b, left, right)
		return false
	}
	lFP := FingerprintOps(left)
	if rFP := FingerprintOps(right); lFP != rFP {
		t.Logf("fingerprints diverge: %x != %x", lFP, rFP)
		return false
	}
	return true
}

// FingerprintOps hashes a sequence state for the differential tests.
func FingerprintOps(s []any) string { return fmt.Sprintf("%v", s) }

// genRunHistory generates a sequentially valid history biased heavily
// toward runs — tail appends, typing runs, pop runs, front-to-back block
// deletes, ascending overwrite sweeps — with occasional lone random
// operations to hit run boundaries.
func genRunHistory(r *rand.Rand, startLen, maxRuns int, tag int) []Op {
	l := startLen
	var ops []Op
	payload := tag * 10000
	for i := 0; i < maxRuns; i++ {
		k := 1 + r.Intn(6)
		switch r.Intn(6) {
		case 0: // tail append run
			for j := 0; j < k; j++ {
				payload++
				ops = append(ops, SeqInsert{Pos: l, Elems: []any{payload}})
				l++
			}
		case 1: // typing run at an interior point
			p := r.Intn(l + 1)
			for j := 0; j < k; j++ {
				payload++
				ops = append(ops, SeqInsert{Pos: p + j, Elems: []any{payload}})
				l++
			}
		case 2: // pop run
			for j := 0; j < k && l > 0; j++ {
				ops = append(ops, SeqDelete{Pos: 0, N: 1})
				l--
			}
		case 3: // block delete, front to back at a fixed position
			if l == 0 {
				continue
			}
			p := r.Intn(l)
			for j := 0; j < k && p < l; j++ {
				ops = append(ops, SeqDelete{Pos: p, N: 1})
				l--
			}
		case 4: // ascending overwrite sweep
			if l == 0 {
				continue
			}
			p := r.Intn(l)
			for j := 0; j < k && p+j < l; j++ {
				payload++
				ops = append(ops, SeqSet{Pos: p + j, Elem: payload})
			}
		default: // lone random op to break runs at awkward places
			if op := randomSeqOp(r, l); op != nil {
				switch v := op.(type) {
				case SeqInsert:
					l += len(v.Elems)
				case SeqDelete:
					l -= v.N
				}
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// TestBatchedTransformMatchesPairwise is the main differential property:
// run-heavy concurrent histories transform identically under both engines.
func TestBatchedTransformMatchesPairwise(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(12)
		base := make([]any, n)
		for i := range base {
			base[i] = i
		}
		a := genRunHistory(r, n, 1+r.Intn(4), 1)
		b := genRunHistory(r, n, 1+r.Intn(4), 2)
		return checkEngineAgreement(t, base, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedTransformRandomHistories repeats the differential property on
// the fully random (non-run-biased) generator used by the rest of the OT
// suite, so singleton runs and degenerate shapes get equal coverage.
func TestBatchedTransformRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := randomState(r)
		gen := func() []Op {
			cur := append([]any(nil), base...)
			var ops []Op
			for i := 0; i < r.Intn(8); i++ {
				op := randomSeqOp(r, len(cur))
				next, err := ApplySeq(cur, op)
				if err != nil {
					break
				}
				cur = next
				ops = append(ops, op)
			}
			return ops
		}
		return checkEngineAgreement(t, base, gen(), gen())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedTransformBoundaries pins the hand-derived closed-form guard
// boundaries of runCellUniform: server runs landing exactly at a client
// run's start, end, one inside either edge, ties at equal positions, and
// interleavings that must explode.
func TestBatchedTransformBoundaries(t *testing.T) {
	insRun := func(p, n, tag int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = SeqInsert{Pos: p + i, Elems: []any{tag + i}}
		}
		return ops
	}
	delRun := func(p, n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = SeqDelete{Pos: p, N: 1}
		}
		return ops
	}
	setRun := func(p, n, tag int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = SeqSet{Pos: p + i, Elem: tag + i}
		}
		return ops
	}
	base := make([]any, 16)
	for i := range base {
		base[i] = -i
	}
	kinds := []func(p, n, tag int) []Op{
		insRun,
		func(p, n, _ int) []Op { return delRun(p, n) },
		setRun,
	}
	// Every run-kind pair at every critical relative offset of the server
	// run against a client run occupying [6, 6+4).
	for ki, clientKind := range kinds {
		for kj, serverKind := range kinds {
			for _, q := range []int{0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14} {
				for _, m := range []int{1, 2, 4} {
					if kj != 0 && q+m > len(base) {
						continue // delete/overwrite run would walk off the base
					}
					a := clientKind(6, 4, 100)
					b := serverKind(q, m, 200)
					if !checkEngineAgreement(t, base, a, b) {
						t.Fatalf("boundary case failed: clientKind=%d serverKind=%d q=%d m=%d", ki, kj, q, m)
					}
				}
			}
		}
	}
	// Multi-run histories against each other, including back-to-back runs
	// whose boundary falls inside the other side's run.
	multi := [][]Op{
		append(insRun(2, 3, 300), delRun(0, 2)...),
		append(delRun(4, 3), insRun(4, 2, 400)...),
		append(setRun(1, 3, 500), insRun(8, 3, 600)...),
		append(insRun(16, 3, 700), setRun(0, 2, 800)...),
	}
	for i, a := range multi {
		for j, b := range multi {
			if !checkEngineAgreement(t, base, a, b) {
				t.Fatalf("multi-run case (%d, %d) failed", i, j)
			}
		}
	}
}

// TestMergeScratchTransform checks the arena-backed transform: results
// match the package-level TransformAgainst, stay valid across further
// transforms on the same scratch, and the scratch is reusable after Reset.
func TestMergeScratchTransform(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sc := NewMergeScratch()
	for round := 0; round < 200; round++ {
		n := r.Intn(10)
		base := make([]any, n)
		for i := range base {
			base[i] = i
		}
		type pair struct{ client, server, want, got []Op }
		var pairs []pair
		for k := 0; k < 1+r.Intn(4); k++ {
			c := genRunHistory(r, n, 1+r.Intn(3), 1)
			s := genRunHistory(r, n, 1+r.Intn(3), 2)
			pairs = append(pairs, pair{client: c, server: s, want: TransformAgainst(c, s)})
		}
		// All transforms of one "merge" share the scratch; earlier windows
		// must survive later transforms.
		for i := range pairs {
			pairs[i].got = sc.TransformAgainst(pairs[i].client, pairs[i].server)
		}
		for i, p := range pairs {
			if !opsEqual(p.got, p.want) {
				t.Fatalf("round %d pair %d: scratch transform %v != %v (client=%v server=%v)",
					round, i, p.got, p.want, p.client, p.server)
			}
		}
		sc.Reset()
	}
}

// FuzzBatchedTransform feeds machine-generated concurrent histories to
// both engines and requires bit-identical transforms plus TP1 convergence
// — the fuzz companion to TestBatchedTransformMatchesPairwise, sharing
// decodeFuzzOps with FuzzListTransform so crashes minimize to the same
// compact encoding.
func FuzzBatchedTransform(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x00, 0, 0, 0x00, 1, 0, 0x00, 2, 0, 0x80, 0, 0, 0x80, 1, 0}) // append run vs append run
	f.Add([]byte{7, 0x01, 0, 0, 0x01, 0, 0, 0x81, 0, 0, 0x81, 0, 0})             // pop run vs pop run
	f.Add([]byte{6, 0x00, 3, 2, 0x80, 4, 1})                                     // server insert inside client run
	f.Add([]byte{5, 0x02, 0, 1, 0x02, 1, 2, 0x82, 1, 3, 0x82, 2, 4})             // overwrite sweeps colliding
	f.Add([]byte{8, 0x01, 2, 1, 0x01, 2, 1, 0x80, 3, 2, 0x81, 1, 4})             // block delete vs straddling delete
	f.Add([]byte{4, 0x00, 2, 1, 0x00, 3, 1, 0x81, 1, 2, 0x80, 2, 1})             // typing run vs delete across base
	f.Fuzz(func(t *testing.T, data []byte) {
		base, a, b := decodeFuzzOps(data)
		if !checkEngineAgreement(t, base, a, b) {
			t.Fatalf("batched/pairwise divergence (see log)")
		}
	})
}
