package cow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// initialLengths are the vectors a splice program starts from: the zero
// value, a tail-only vector, leaf and level boundaries, and a trie two
// levels deep.
var initialLengths = [...]int{0, 1, 31, 33, 64, 700, 1100, 2100}

// runSpliceProgram interprets prog as vector operations — Splice, Append,
// AppendOwned, Set, SetOwned, Pop, a MarkShared + Sealed snapshot,
// Compact, and bursts of one-element splices — run beside a plain-slice
// model. After every step the vector must agree with the model (Len, Get
// at random indexes, Slice) and keep its shape invariants, one earlier
// snapshot must still read its old contents, and no more tail chunks may
// have been reclaimed than allocated; at the end every snapshot is read.
// Bytes past the end of prog read as zero.
func runSpliceProgram(t *testing.T, prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	index := func(n int) int { return (next()<<8 | next()) % n }
	// Elements are 1, 2, 3, ...: a released (zeroed) slot never passes for
	// one.
	last := 0
	fresh := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			last++
			out[i] = last
		}
		return out
	}
	a0, r0 := ChunkAccounting()
	var v Vector[int]
	model := fresh(initialLengths[next()%len(initialLengths)])
	if len(model) > 0 {
		v = FromSlice(model)
	}
	type snapshot struct {
		v     Vector[int]
		model []int
	}
	var snaps []snapshot
	rng := rand.New(rand.NewSource(int64(len(prog))))
	splice := func(pos, del int, ins []int) {
		v = v.Splice(pos, del, ins...)
		model = slices.Replace(model, pos, pos+del, ins...)
	}
	for step := 0; step < 256 && len(prog) > 0; step++ {
		n := len(model)
		switch op := next() % 11; {
		case op <= 1: // one splice; operand bytes of 128 and up make it wide
			pos := index(n + 1)
			d, k := next(), next()
			del, ins := d%4, k%5
			if d >= 128 {
				del = d % 48
			}
			if k >= 128 {
				ins = k % 48
			}
			splice(pos, min(del, n-pos), fresh(ins))
		case op == 2:
			x := fresh(1)[0]
			v, model = v.Append(x), append(model, x)
		case op == 3:
			x := fresh(1)[0]
			v, model = v.AppendOwned(x), append(model, x)
		case op == 4 && n > 0:
			i, x := index(n), fresh(1)[0]
			v, model[i] = v.Set(i, x), x
		case op == 5 && n > 0:
			i, x := index(n), fresh(1)[0]
			v, model[i] = v.SetOwned(i, x), x
		case op == 6 && n > 0:
			v, model = v.Pop(), model[:n-1]
		case op == 7:
			v.MarkShared()
			snaps = append(snaps, snapshot{v.Sealed(), slices.Clone(model)})
		case op == 8:
			v = v.Compact()
		case op >= 9: // a burst of one-element inserts or deletes: leaves and nodes split and empty
			r := rand.New(rand.NewSource(int64(next())))
			for k := 0; k < 48; k++ {
				if op == 9 {
					splice(r.Intn(len(model)+1), 0, fresh(1))
				} else if len(model) > 0 {
					splice(r.Intn(len(model)), 1, nil)
				}
			}
		}
		if err := checkVector(v, model, rng); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(snaps) > 0 {
			if s := snaps[step%len(snaps)]; !slices.Equal(s.v.Slice(), s.model) {
				t.Fatalf("step %d: snapshot %d no longer reads its contents", step, step%len(snaps))
			}
		}
		if a, r := ChunkAccounting(); r-r0 > a-a0 {
			t.Fatalf("step %d: %d chunks reclaimed, only %d allocated", step, r-r0, a-a0)
		}
	}
	for k, s := range snaps {
		if !slices.Equal(s.v.Slice(), s.model) {
			t.Fatalf("snapshot %d no longer reads its contents", k)
		}
	}
}

// checkVector compares v with model (Len, Get at three random indexes,
// Slice) and checks v's shape invariants.
func checkVector(v Vector[int], model []int, rng *rand.Rand) error {
	if v.Len() != len(model) {
		return fmt.Errorf("Len %d, model %d", v.Len(), len(model))
	}
	for k := 0; k < 3 && len(model) > 0; k++ {
		if i := rng.Intn(len(model)); v.Get(i) != model[i] {
			return fmt.Errorf("Get(%d) = %d, model %d", i, v.Get(i), model[i])
		}
	}
	if !slices.Equal(v.Slice(), model) {
		return fmt.Errorf("Slice diverged from the model")
	}
	return v.shapeErr()
}

// shapeErr checks the invariants the methods rely on. A strict vector's
// tail holds what follows its full leaves, one element at least; a
// relaxed vector's root is a relaxed node. Leaves sit at one depth and are
// never empty, size tables agree with what is below them, and no relaxed
// node hides under a strict one.
func (v Vector[T]) shapeErr() error {
	if len(v.tail) > width {
		return fmt.Errorf("tail of %d elements", len(v.tail))
	}
	trie := v.count - len(v.tail)
	switch {
	case v.relaxed():
		_, err := nodeShapeErr(v.root, v.shift, trie, false)
		return err
	case v.count > 0 && trie != v.tailOffset():
		return fmt.Errorf("strict vector of %d elements with a tail of %d", v.count, len(v.tail))
	case trie == 0:
		return nil
	}
	_, err := nodeShapeErr(v.root, v.shift, trie, true)
	return err
}

// nodeShapeErr checks the subtree below n, a node at level its parent
// counts as size elements, and returns its leaf count. strict is set below
// a strict node. Strict subtrees are checked up to size only: Pop leaves
// stale leaves past it.
func nodeShapeErr[T any](n *node[T], level uint, size int, strict bool) (int, error) {
	switch {
	case n == nil:
		return 0, fmt.Errorf("missing node at level %d", level)
	case level == 0:
		if len(n.values) != size || size == 0 || strict && size != width {
			return 0, fmt.Errorf("leaf of %d elements counted as %d", len(n.values), size)
		}
		return 1, nil
	case n.values != nil:
		return 0, fmt.Errorf("internal node with values at level %d", level)
	case n.sizes == nil:
		if size <= 0 || size > width<<level || size%width != 0 {
			return 0, fmt.Errorf("strict node at level %d counted as %d elements", level, size)
		}
		leaves := 0
		for c := 0; c<<level < size; c++ {
			l, err := nodeShapeErr(n.children[c], level-bits, min(size-c<<level, 1<<level), true)
			if err != nil {
				return 0, err
			}
			leaves += l
		}
		return leaves, nil
	case strict:
		return 0, fmt.Errorf("relaxed node under a strict one at level %d", level)
	}
	leaves, prev := 0, 0
	for c := 0; c < width && n.children[c] != nil; c++ {
		l, err := nodeShapeErr(n.children[c], level-bits, n.sizes.cum[c]-prev, false)
		if err != nil {
			return 0, err
		}
		leaves, prev = leaves+l, n.sizes.cum[c]
	}
	if prev != size || prev == 0 || leaves != n.sizes.leaves {
		return 0, fmt.Errorf("relaxed node at level %d holds %d elements in %d leaves, counted as %d in %d",
			level, prev, leaves, size, n.sizes.leaves)
	}
	return leaves, nil
}

// FuzzVectorSplice is the differential fuzz of the vector against a
// plain-slice model (runSpliceProgram). The committed corpus under
// testdata/fuzz/FuzzVectorSplice runs with every go test; make fuzz-cow
// explores beyond it.
func FuzzVectorSplice(f *testing.F) {
	f.Add([]byte{7, 9, 1, 9, 2, 7, 0, 1, 0, 2, 3, 10, 3, 6, 6})
	f.Add([]byte{0, 3, 3, 3, 0, 0, 1, 0, 2, 9, 4, 7, 6, 6, 2, 2})
	f.Fuzz(runSpliceProgram)
}

// TestSpliceRandomPrograms runs the fuzz target on seeded random programs,
// so every go test covers more shapes than the corpus holds.
func TestSpliceRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 100; k++ {
		prog := make([]byte, 32+r.Intn(480))
		r.Read(prog)
		if !t.Run(fmt.Sprint(k), func(t *testing.T) { runSpliceProgram(t, prog) }) {
			t.Fatalf("failing program: %q", prog)
		}
	}
}

// TestStrictOpsNeverRelax pins that relaxed nodes come from Splice alone:
// no sequence of the other operations builds one, so a vector that is only
// appended, overwritten, popped, bulk-built and sealed never takes the
// relaxed descent.
func TestStrictOpsNeverRelax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var v Vector[int]
		if seed%2 == 0 {
			v = FromSlice(make([]int, r.Intn(3000)))
		}
		for step := 0; step < 600; step++ {
			switch n := v.Len(); r.Intn(7) {
			case 0:
				v = v.Append(step)
			case 1:
				v = v.AppendOwned(step)
			case 2:
				if n > 0 {
					v = v.Set(r.Intn(n), step)
				}
			case 3:
				if n > 0 {
					v = v.SetOwned(r.Intn(n), step)
				}
			case 4:
				if n > 0 {
					v = v.Pop()
				}
			case 5:
				v = FromSlice(v.Slice())
			case 6:
				v.MarkShared()
				v = v.Sealed()
			}
			if v.relaxed() || hasRelaxedNode(v.root) {
				t.Logf("seed %d step %d: relaxed node", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// hasRelaxedNode reports whether any node reachable from n, stale paths
// included, carries a size table.
func hasRelaxedNode[T any](n *node[T]) bool {
	if n == nil {
		return false
	}
	if n.sizes != nil {
		return true
	}
	for _, c := range n.children {
		if hasRelaxedNode(c) {
			return true
		}
	}
	return false
}

// TestSpliceTailOwnership: a splice inside the tail writes in place only
// under SetOwned's rule; otherwise it copies into a counted chunk and
// leaves a sealed view's contents alone.
func TestSpliceTailOwnership(t *testing.T) {
	v := FromSlice([]int{1, 2, 3}) // owned tail with spare capacity
	a0, _ := ChunkAccounting()
	v = v.Splice(1, 1, 7, 8)
	if a1, _ := ChunkAccounting(); a1 != a0 {
		t.Fatalf("an owned tail splice allocated %d chunks", a1-a0)
	}
	if got := v.Slice(); !slices.Equal(got, []int{1, 7, 8, 3}) {
		t.Fatalf("in-place splice: %v", got)
	}
	v.MarkShared()
	view := v.Sealed()
	a1, r1 := ChunkAccounting()
	w := v.Splice(0, 1)
	if a2, r2 := ChunkAccounting(); a2-a1 != 1 || r2 != r1 {
		t.Fatalf("a shared tail splice allocated %d and reclaimed %d chunks, want 1 and 0", a2-a1, r2-r1)
	}
	if !slices.Equal(view.Slice(), []int{1, 7, 8, 3}) || !slices.Equal(w.Slice(), []int{7, 8, 3}) {
		t.Fatalf("view %v, spliced %v", view.Slice(), w.Slice())
	}
}

// TestZeroValuePopThenAppend: the zero value grows its first leaf as the
// root itself; popping that leaf back into the tail must leave no stale
// root for the next push to descend into.
func TestZeroValuePopThenAppend(t *testing.T) {
	var v Vector[int]
	for i := 0; i < 33; i++ {
		v = v.AppendOwned(i)
	}
	v = v.Pop().Append(32).Append(33)
	want := make([]int, 34)
	for i := range want {
		want[i] = i
	}
	if got := v.Slice(); !slices.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}
