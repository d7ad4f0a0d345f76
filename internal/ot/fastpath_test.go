package ot

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The helpers below wrap the production fast paths the way the tests call
// them: freshly allocated, caller-owned results and no scratch arena.

// transformScalarFast is transformScalarFastInto onto a fresh slice.
func transformScalarFast(client, server []Op) ([]Op, bool) {
	return transformScalarFastInto(client, server, nil)
}

// transformSetFast is transformSetFastInto onto a fresh slice.
func transformSetFast(client, server []Op) ([]Op, bool) {
	return transformSetFastInto(client, server, nil)
}

// toShapeOps unwraps both sequences into fresh slices. ok is false when any
// operation is not shape-representable.
func toShapeOps(a, b []Op) (aS, bS []shapeOp, ok bool) {
	var sc MergeScratch
	aS, bS, ok = sc.toShapes(a, b)
	return append([]shapeOp(nil), aS...), append([]shapeOp(nil), bS...), ok
}

// materializeShapes boxes transformed shapes into a fresh slice.
func materializeShapes(s []shapeOp) []Op {
	var sc MergeScratch
	return sc.carve(s, true)
}

// TestScalarFastPathMatchesGeneric pins the keyed O(n+m) scalar transform
// against the general recursion: identical effects on identical states,
// for random single-family sequences (the runtime's shape).
func TestScalarFastPathMatchesGeneric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pick := r.Intn(4)
		gen := func(n int) []Op {
			var ops []Op
			for len(ops) < n {
				op := randomScalarOp(r)
				keep := false
				switch op.Kind() {
				case KindCounterAdd:
					keep = pick == 0
				case KindMapSet, KindMapDelete:
					keep = pick == 1
				case KindSetAdd, KindSetRemove:
					keep = pick == 2
				case KindRegisterSet:
					keep = pick == 3
				}
				if keep {
					ops = append(ops, op)
				}
			}
			return ops
		}
		client := gen(r.Intn(8))
		server := gen(r.Intn(8))

		fast, ok := transformScalarFast(client, server)
		if !ok {
			t.Logf("seed %d: fast path refused scalar input", seed)
			return false
		}
		slow, _ := TransformSeqs(client, server)

		base := newScalarModel()
		base.apply(MapSet{Key: "k1", Value: 0}, SetAdd{Elem: "k1"}, RegisterSet{Value: -1})
		base.apply(server...)
		a := base.clone()
		a.apply(fast...)
		b := base.clone()
		b.apply(slow...)
		if !a.equal(b) {
			t.Logf("seed %d: client=%v server=%v fast=%v slow=%v", seed, client, server, fast, slow)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeFastPathMatchesGeneric pins the iterative shape-based sequence
// transform against the generic interface-typed recursion: identical
// transformed sequences (both sides), for random valid concurrent histories
// of the list and text families — including the split (delete crossing
// insert) and absorb cases.
func TestShapeFastPathMatchesGeneric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		if r.Intn(2) == 0 {
			// List family.
			s := randomState(r)
			genSeq := func() []Op {
				cur := append([]any(nil), s...)
				k := r.Intn(6)
				ops := make([]Op, 0, k)
				for i := 0; i < k; i++ {
					op := randomSeqOp(r, len(cur))
					next, err := ApplySeq(cur, op)
					if err != nil {
						return ops
					}
					cur = next
					ops = append(ops, op)
				}
				return ops
			}
			a, b := genSeq(), genSeq()
			aS, bS, ok := toShapeOps(a, b)
			if !ok {
				t.Logf("seed %d: shape path refused list input", seed)
				return false
			}
			aR, bR := transformShapeSeqs(aS, bS)
			aFast, bFast := materializeShapes(aR), materializeShapes(bR)
			aSlow, bSlow := transformSeqsGeneric(a, b)
			if !reflect.DeepEqual(append([]Op{}, aFast...), append([]Op{}, aSlow...)) ||
				!reflect.DeepEqual(append([]Op{}, bFast...), append([]Op{}, bSlow...)) {
				t.Logf("seed %d: a=%v b=%v\nfast: aT=%v bT=%v\nslow: aT=%v bT=%v",
					seed, a, b, aFast, bFast, aSlow, bSlow)
				return false
			}
			return true
		}
		// Text family.
		s := "hello, world"
		genSeq := func() []Op {
			cur := s
			k := r.Intn(6)
			ops := make([]Op, 0, k)
			for i := 0; i < k; i++ {
				op := randomTextOp(r, len([]rune(cur)))
				next, err := applyTextAll(cur, []Op{op})
				if err != nil {
					return ops
				}
				cur = next
				ops = append(ops, op)
			}
			return ops
		}
		a, b := genSeq(), genSeq()
		aS, bS, ok := toShapeOps(a, b)
		if !ok {
			t.Logf("seed %d: shape path refused text input", seed)
			return false
		}
		aR, bR := transformShapeSeqs(aS, bS)
		aFast, bFast := materializeShapes(aR), materializeShapes(bR)
		aSlow, bSlow := transformSeqsGeneric(a, b)
		if !reflect.DeepEqual(append([]Op{}, aFast...), append([]Op{}, aSlow...)) ||
			!reflect.DeepEqual(append([]Op{}, bFast...), append([]Op{}, bSlow...)) {
			t.Logf("seed %d: a=%v b=%v\nfast: aT=%v bT=%v\nslow: aT=%v bT=%v",
				seed, a, b, aFast, bFast, aSlow, bSlow)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6000}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeFastPathReusesUnchangedOps confirms the materialization step
// returns the original interface values (no re-boxing) when a transform
// leaves shapes untouched — the allocation contract of the fast path.
func TestShapeFastPathReusesUnchangedOps(t *testing.T) {
	a := []Op{SeqSet{Pos: 0, Elem: "a"}, SeqInsert{Pos: 3, Elems: list(1, 2)}}
	b := []Op{SeqSet{Pos: 7, Elem: "b"}, SeqDelete{Pos: 6, N: 1}}
	aS, bS, ok := toShapeOps(a, b)
	if !ok {
		t.Fatal("shape path refused")
	}
	aR, _ := transformShapeSeqs(aS, bS)
	aT := materializeShapes(aR)
	if len(aT) != 2 {
		t.Fatalf("unexpected result %v", aT)
	}
	// The set at 0 is untouched by ops at 6/7 — must be the same value.
	if aT[0] != a[0] {
		t.Errorf("unchanged op was re-boxed: %v", aT[0])
	}
}

// TestSetFastPathMatchesGeneric pins the linear SeqSet-only transform
// against the generic recursion on both sides of the map/linear-scan size
// threshold.
func TestSetFastPathMatchesGeneric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func(n int) []Op {
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = SeqSet{Pos: r.Intn(6), Elem: r.Intn(100)}
			}
			return ops
		}
		// Sizes straddle linearMax so both the scan and map variants run.
		client := gen(r.Intn(14))
		server := gen(r.Intn(14))
		fast, ok := transformSetFast(client, server)
		if !ok {
			t.Logf("seed %d: fast path refused SeqSet input", seed)
			return false
		}
		slow, _ := transformSeqsGeneric(client, server)
		if !reflect.DeepEqual(append([]Op{}, fast...), append([]Op{}, slow...)) {
			t.Logf("seed %d: client=%v server=%v fast=%v slow=%v", seed, client, server, fast, slow)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestSetFastPathFallsBack confirms mixed sequences refuse the SeqSet path.
func TestSetFastPathFallsBack(t *testing.T) {
	sets := []Op{SeqSet{Pos: 0, Elem: 1}}
	mixed := []Op{SeqSet{Pos: 0, Elem: 1}, SeqInsert{Pos: 0, Elems: list(2)}}
	if _, ok := transformSetFast(sets, mixed); ok {
		t.Fatal("mixed server must fall back")
	}
	if _, ok := transformSetFast(mixed, sets); ok {
		t.Fatal("mixed client must fall back")
	}
}

// TestScalarFastPathFallsBack confirms positional and mixed inputs refuse
// the fast path.
func TestScalarFastPathFallsBack(t *testing.T) {
	seqOp := []Op{SeqInsert{Pos: 0, Elems: list(1)}}
	scalarOp := []Op{CounterAdd{Delta: 1}}
	if _, ok := transformScalarFast(seqOp, scalarOp); ok {
		t.Fatal("positional client must fall back")
	}
	if _, ok := transformScalarFast(scalarOp, seqOp); ok {
		t.Fatal("positional server must fall back")
	}
	treeOp := []Op{TreeSet{Path: nil, Value: 1}}
	if _, ok := transformScalarFast(treeOp, scalarOp); ok {
		t.Fatal("tree client must fall back")
	}
	// Empty sides short-circuit successfully.
	if out, ok := transformScalarFast(nil, scalarOp); !ok || len(out) != 0 {
		t.Fatal("empty client should pass through")
	}
}

// TestScalarFastPathAbsorption pins each absorption rule explicitly.
func TestScalarFastPathAbsorption(t *testing.T) {
	cases := []struct {
		client, server Op
		survives       bool
	}{
		{MapSet{Key: "k", Value: 1}, MapSet{Key: "k", Value: 2}, false},
		{MapSet{Key: "k", Value: 1}, MapDelete{Key: "k"}, false},
		{MapSet{Key: "k", Value: 1}, MapSet{Key: "j", Value: 2}, true},
		{MapDelete{Key: "k"}, MapSet{Key: "k", Value: 2}, false},
		{MapDelete{Key: "k"}, MapDelete{Key: "k"}, true}, // idempotent keep
		{SetAdd{Elem: "x"}, SetRemove{Elem: "x"}, false},
		{SetAdd{Elem: "x"}, SetAdd{Elem: "x"}, true},
		{SetRemove{Elem: "x"}, SetAdd{Elem: "x"}, false},
		{SetRemove{Elem: "x"}, SetRemove{Elem: "x"}, true},
		{RegisterSet{Value: 1}, RegisterSet{Value: 2}, false},
		{CounterAdd{Delta: 1}, CounterAdd{Delta: 2}, true},
	}
	for _, c := range cases {
		out, ok := transformScalarFast([]Op{c.client}, []Op{c.server})
		if !ok {
			t.Fatalf("%v vs %v: fast path refused", c.client, c.server)
		}
		if got := len(out) == 1; got != c.survives {
			t.Errorf("%v vs %v: survives=%v, want %v", c.client, c.server, got, c.survives)
		}
		// And it must agree with the generic path (normalize nil/empty).
		slow, _ := TransformSeqs([]Op{c.client}, []Op{c.server})
		if !reflect.DeepEqual(append([]Op{}, out...), append([]Op{}, slow...)) {
			t.Errorf("%v vs %v: fast %v != slow %v", c.client, c.server, out, slow)
		}
	}
}
