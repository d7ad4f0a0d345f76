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
// boundaries of uniformRow: server runs landing exactly at a client
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
	sc := &MergeScratch{}
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

// firstHandOff reports where the first client run of a leaves the uniform
// row kernel: the index of the first server run it interleaves with, or the
// number of server runs when the whole row is uniform.
func firstHandOff(a, b []Op) int {
	aS, bS, _ := toShapeOps(a, b)
	aRuns := coalesceRuns(aS, nil)
	bRuns := coalesceRuns(bS, nil)
	return uniformRow(&aRuns[0], bRuns)
}

// TestBatchedTransformMidRowHandOff pins the seam between the in-place
// uniform row and the exact machinery: in every case the first client
// run's row starts with uniform cells that have already moved both sides
// when a later cell interleaves, and the cells after it, plus a second
// client run, cross the transformed row again.
func TestBatchedTransformMidRowHandOff(t *testing.T) {
	base := make([]any, 64)
	for i := range base {
		base[i] = -i
	}
	delAt := func(p int) Op { return SeqDelete{Pos: p, N: 1} }
	insAt := func(p, v int) Op { return SeqInsert{Pos: p, Elems: []any{v}} }
	setAt := func(p, v int) Op { return SeqSet{Pos: p, Elem: v} }
	cases := []struct {
		name string
		a, b []Op
		want int // server run index of the first row's hand-off
	}{{
		// Client deletes [21, 25) after the server's insert at 2; the
		// server's insert at 23 lands inside and splits the run.
		name: "delete run split by server insert",
		a:    []Op{delAt(20), delAt(20), delAt(20), delAt(20), insAt(40, 100)},
		b:    []Op{insAt(2, 200), delAt(40), setAt(50, 201), insAt(23, 202), delAt(0), insAt(55, 203)},
		want: 3,
	}, {
		// Client inserts at [19, 23) after the server's delete at 5; the
		// server's insert at 21 lands strictly inside the run.
		name: "insert run with server insert inside",
		a:    []Op{insAt(20, 100), insAt(21, 101), insAt(22, 102), insAt(23, 103), delAt(0)},
		b:    []Op{delAt(5), insAt(60, 200), insAt(21, 201), setAt(3, 202), delAt(30)},
		want: 2,
	}, {
		// Client overwrites [21, 25); the server's sweep over [22, 26)
		// collides on three slots, and the server wins them.
		name: "colliding overwrite sweeps",
		a:    []Op{setAt(20, 100), setAt(21, 101), setAt(22, 102), setAt(23, 103), insAt(10, 104)},
		b:    []Op{insAt(0, 200), setAt(40, 201), setAt(22, 202), setAt(23, 203), setAt(24, 204), setAt(25, 205), delAt(1)},
		want: 2,
	}, {
		// Both sides delete the element at 32 once the earlier cells have
		// moved the client's delete there: both deletes are absorbed.
		name: "equal-slot singleton deletes",
		a:    []Op{delAt(30), insAt(5, 100)},
		b:    []Op{insAt(10, 200), delAt(50), insAt(3, 201), delAt(32), delAt(0), insAt(60, 202)},
		want: 3,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := firstHandOff(c.a, c.b); got != c.want {
				t.Fatalf("first row hands off at server run %d, want %d", got, c.want)
			}
			if !checkEngineAgreement(t, base, c.a, c.b) {
				t.Fatal("engines disagree (see log)")
			}
		})
	}
}

// genScatterHistory generates a sequentially valid history of n singleton
// operations at uniformly random positions over a base of startLen
// elements: mostly inserts and deletes, a few overwrites. Neighbouring ops
// almost never form runs, which is the merge_scatter workload's shape.
func genScatterHistory(r *rand.Rand, startLen, n, tag int) []Op {
	l := startLen
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		v := tag*10000 + i
		switch k := r.Intn(8); {
		case l == 0 || k < 4:
			ops = append(ops, SeqInsert{Pos: r.Intn(l + 1), Elems: []any{v}})
			l++
		case k < 7:
			ops = append(ops, SeqDelete{Pos: r.Intn(l), N: 1})
			l--
		default:
			ops = append(ops, SeqSet{Pos: r.Intn(l), Elem: v})
		}
	}
	return ops
}

// TestBatchedTransformScatter is the differential property at scatter
// scale: bases of 64–256 elements and 32–128 singleton ops per side, so
// rows are long and the first interleaving cell (two deletes or two
// overwrites of one slot) usually sits far into the row.
func TestBatchedTransformScatter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64 + r.Intn(193)
		base := make([]any, n)
		for i := range base {
			base[i] = i
		}
		a := genScatterHistory(r, n, 32+r.Intn(97), 1)
		b := genScatterHistory(r, n, 32+r.Intn(97), 2)
		return checkEngineAgreement(t, base, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTransformScatter measures the run-length engine on the shape of
// one merge_scatter structure: 8 children of 64 singleton ops each over a
// 1024-element base, child k transformed against a server history of 64·k
// ops, as a MergeAll does. ns/cell is the cost of one client op against one
// server op.
func BenchmarkTransformScatter(b *testing.B) {
	const baseLen, children, perChild = 1024, 8, 64
	r := rand.New(rand.NewSource(1))
	server := genScatterHistory(r, baseLen, children*perChild, 0)
	clients := make([][]Op, children)
	cells := 0
	for k := range clients {
		clients[k] = genScatterHistory(r, baseLen, perChild, k+1)
		cells += perChild * perChild * (k + 1)
	}
	sc := &MergeScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range clients {
			sc.TransformAgainst(c, server[:perChild*(k+1)])
		}
		sc.Reset()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}
