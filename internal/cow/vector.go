// Package cow provides a persistent (copy-on-write) vector, the
// optimization substrate the paper's conclusion announces as future work:
// "we will optimize our Spawn and Merge framework using techniques like
// copy-on-write ... to decrease the overhead".
//
// A Vector is an immutable 32-way branching trie with a tail buffer, the
// classic persistent-vector design. Clone is O(1) — it shares structure —
// so a task copy of a COW-backed structure costs almost nothing at spawn
// time; mutated paths are copied lazily, bounding each write to O(log32 n)
// node copies. Interior insertions and deletions (Splice) follow the
// relaxed-radix idea of RRB-trees (Bagwell & Rompf, 2011): the nodes a
// splice copies carry a size table, everything else stays a plain radix
// trie, so a splice costs O(log32 n) too. Every sequence structure in
// package mergeable (List, Queue) is backed by it.
package cow

import (
	"fmt"
	"slices"
	"sync/atomic"
)

const (
	bits  = 5
	width = 1 << bits // 32
	mask  = width - 1
)

// Tail-chunk accounting. Every tail buffer the package allocates counts
// as one chunk; an explicit release (ReleaseOwned, Compact, or the owned
// mutators abandoning an exclusively owned backing) counts the chunk
// reclaimed and zeroes its slots, so element references return to the
// allocator immediately instead of riding along unreachably until the
// whole trie dies. allocated - reclaimed bounds the chunks whose slots
// may still pin memory; leak tests assert it stays flat across
// long-lived single-owner workloads.
var chunkAllocs, chunkReclaims atomic.Int64

// ChunkAccounting returns the number of tail chunks allocated and
// explicitly released since process start.
func ChunkAccounting() (allocated, reclaimed int64) {
	return chunkAllocs.Load(), chunkReclaims.Load()
}

// releaseChunk returns one exclusively owned tail chunk: every slot up to
// capacity is zeroed (dropping the element references a clipped length
// would otherwise keep live) and the reclaim is accounted. Callers must
// hold the only reference to the backing array.
func releaseChunk[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	var zero T
	s = s[:cap(s)]
	for i := range s {
		s[i] = zero
	}
	chunkReclaims.Add(1)
}

// tailCap is the capacity an owned mutator gives a fresh tail chunk of n
// elements: room to keep growing in place, within one leaf's width.
func tailCap(n int) int {
	return min(max(2*n, 8), width)
}

// node is a trie node: a leaf (non-nil values, never empty) or an internal
// node (children). An internal node is strict — every child full except
// the last, so an index's radix digit picks the child — unless it carries
// a size table, which makes it relaxed: its children may hold any number
// of elements, and the table says where each one starts. Only Splice
// creates relaxed nodes, and only on the paths it copies; a strict subtree
// never contains one.
type node[T any] struct {
	children [width]*node[T]
	values   []T
	sizes    *sizeTable
}

// sizeTable indexes a relaxed node: cum[j] counts the elements in children
// 0..j, and leaves counts the leaves below the node. A table never changes
// once built, so copies of a node share it.
type sizeTable struct {
	cum    [width]int
	leaves int
}

// find returns the child of a relaxed node at level that holds index i,
// and i's index within that child. Children hold at most 1<<level
// elements each, so the radix digit is a lower bound to scan up from.
func (t *sizeTable) find(i int, level uint) (int, int) {
	j := i >> level
	for t.cum[j] <= i {
		j++
	}
	if j > 0 {
		i -= t.cum[j-1]
	}
	return j, i
}

func newLeaf[T any](vals []T) *node[T] {
	n := &node[T]{}
	n.values = append(n.values, vals...)
	return n
}

// Vector is an immutable sequence. All methods returning a Vector leave
// the receiver untouched, except the owned mutators (AppendOwned,
// SetOwned, Splice), whose callers discard the receiver; the zero value
// is an empty vector ready to use.
type Vector[T any] struct {
	count int
	shift uint
	root  *node[T]
	tail  []T
	// sharedTail records that another live Vector value shares this tail's
	// backing array *within its length* (set by MarkShared when a sealed
	// view is handed out). It blocks SetOwned's in-place write — a write
	// inside the shared length would be visible through the other view —
	// while leaving AppendOwned's beyond-length writes alone, which sealed
	// (length-clipped) views can never observe. Any operation that installs
	// a freshly copied tail clears it.
	sharedTail bool
}

// relaxed reports whether a splice reshaped the trie. The root is then a
// relaxed node, the trie holds count-len(tail) elements and the tail
// anywhere from 0 to width of them. Append and Pop test it once at the
// top, so a vector no splice touched runs their strict radix code; Get
// and Set need no test, as they follow size tables wherever a node has
// one. The mark lives in the root rather than in a field of its own, so a
// Vector stays seven words and its methods keep receiving it in registers.
func (v Vector[T]) relaxed() bool { return v.root != nil && v.root.sizes != nil }

// New returns a vector holding vals.
func New[T any](vals ...T) Vector[T] {
	return FromSlice(vals)
}

// FromSlice builds a vector from vals in O(n): full leaves are packed
// directly from the slice and the trie is assembled bottom-up, instead of
// paying Append's per-element tail copy (which makes element-wise
// construction O(n·width)). The result is indistinguishable from the same
// sequence of Appends. This is the bulk-load path the zero-copy spawn
// pipeline uses whenever a structure rebuilds its backing vector.
func FromSlice[T any](vals []T) Vector[T] {
	count := len(vals)
	if count == 0 {
		return Vector[T]{shift: bits}
	}
	tailOff := 0
	if count >= width {
		tailOff = ((count - 1) >> bits) << bits
	}
	// Pad small tails: structures rebuilt via FromSlice almost always keep
	// appending (or overwriting) in owned mode right after, and the spare
	// capacity turns their next growth into an in-place write.
	tcap := max(count-tailOff, 8)
	chunkAllocs.Add(1)
	tail := append(make([]T, 0, tcap), vals[tailOff:]...)
	if tailOff == 0 {
		return Vector[T]{count: count, shift: bits, tail: tail}
	}
	cur := make([]*node[T], 0, (tailOff+width-1)/width)
	for i := 0; i < tailOff; i += width {
		cur = append(cur, newLeaf(vals[i:i+width]))
	}
	// Group nodes 32 at a time until one internal root remains. The root is
	// always internal — Get descends shift/bits levels before reading leaf
	// values — so even a single leaf gets one grouping round.
	shift := uint(0)
	for len(cur) > 1 || shift == 0 {
		next := make([]*node[T], 0, (len(cur)+width-1)/width)
		for i := 0; i < len(cur); i += width {
			end := i + width
			if end > len(cur) {
				end = len(cur)
			}
			n := &node[T]{}
			copy(n.children[:], cur[i:end])
			next = append(next, n)
		}
		cur = next
		shift += bits
	}
	return Vector[T]{count: count, shift: shift, root: cur[0], tail: tail}
}

// Len returns the number of elements.
func (v Vector[T]) Len() int { return v.count }

// tailOffset is the index of the first element stored in the tail buffer
// of a strict vector.
func (v Vector[T]) tailOffset() int {
	if v.count < width {
		return 0
	}
	return ((v.count - 1) >> bits) << bits
}

// Get returns the element at index i. It panics when i is out of range,
// matching slice semantics.
func (v Vector[T]) Get(i int) T {
	if i < 0 || i >= v.count {
		panic(fmt.Sprintf("cow: index %d out of range [0,%d)", i, v.count))
	}
	if off := v.count - len(v.tail); i >= off {
		return v.tail[i-off]
	}
	vals, j := v.leafFor(i)
	return vals[j]
}

// leafFor returns the values of the leaf holding trie index i, and i's
// index within them. Relaxed nodes are walked by their size tables; below
// the first strict node (the root, on a vector no splice touched) the
// descent is the plain radix one.
func (v Vector[T]) leafFor(i int) ([]T, int) {
	n, level := v.root, v.shift
	for ; level > 0 && n.sizes != nil; level -= bits {
		var j int
		j, i = n.sizes.find(i, level)
		n = n.children[j]
	}
	for ; level > 0; level -= bits {
		n = n.children[(i>>level)&mask]
	}
	return n.values, i & mask
}

// Append returns a vector with x added at the end.
func (v Vector[T]) Append(x T) Vector[T] {
	if v.relaxed() {
		return v.appendRelaxed(x)
	}
	if v.count-v.tailOffset() < width {
		// Room in the tail: copy only the tail buffer.
		chunkAllocs.Add(1)
		newTail := make([]T, len(v.tail), len(v.tail)+1)
		copy(newTail, v.tail)
		newTail = append(newTail, x)
		return Vector[T]{count: v.count + 1, shift: v.shift, root: v.root, tail: newTail}
	}
	// Tail full: push it into the trie.
	tailNode := newLeaf(v.tail)
	newShift := v.shift
	var newRoot *node[T]
	switch {
	case v.root == nil:
		// First trie node: wrap the leaf so the trie depth matches shift.
		newRoot = newPath(v.shift, tailNode)
	case (v.count >> bits) > (1 << v.shift):
		// Root overflow: grow a level.
		newRoot = &node[T]{}
		newRoot.children[0] = v.root
		newRoot.children[1] = newPath(v.shift, tailNode)
		newShift += bits
	default:
		newRoot = pushTail(v.root, v.shift, v.count-1, tailNode)
	}
	chunkAllocs.Add(1)
	return Vector[T]{count: v.count + 1, shift: newShift, root: newRoot, tail: []T{x}}
}

// appendRelaxed is Append on a relaxed vector. A full tail joins the
// trie's last leaf (which then splits in two), leaving an empty tail.
func (v Vector[T]) appendRelaxed(x T) Vector[T] {
	if len(v.tail) == width {
		full := v.tail
		v.tail, v.count = nil, v.count-width
		v, _ = v.editTrie(v.count, 0, full)
	}
	chunkAllocs.Add(1)
	newTail := make([]T, len(v.tail), len(v.tail)+1)
	copy(newTail, v.tail)
	v.tail = append(newTail, x)
	v.count++
	v.sharedTail = false
	return v
}

// AppendOwned is Append for a caller that exclusively owns the receiver's
// tail buffer — no other live Vector value can observe it — and discards
// the receiver after the call. When the tail has spare capacity the element
// is written in place, making a run of owned appends amortize to one
// allocation instead of one per element. Exclusive ownership holds for the
// single-owner mutable façades in package mergeable: every operation that
// lets a second Vector value share a tail with spare capacity (CloneValue,
// AdoptFrom) re-establishes safety by sealing the tail first, after which
// the next owned append copies it. All other constructors (Append, Set,
// FromSlice, Pop) already produce sealed or freshly copied tails.
func (v Vector[T]) AppendOwned(x T) Vector[T] {
	n := len(v.tail)
	if n < width {
		if n < cap(v.tail) {
			v.tail = append(v.tail, x)
			v.count++
			return v
		}
		chunkAllocs.Add(1)
		nt := make([]T, n, tailCap(n))
		copy(nt, v.tail)
		if !v.sharedTail {
			// The receiver's backing was exclusively owned (a sealed tail no
			// clone ever attached to); the owner is discarding it right now.
			releaseChunk(v.tail)
		}
		v.tail = append(nt, x)
		v.count++
		v.sharedTail = false // fresh backing, no other view can see it
		return v
	}
	return v.Append(x) // tail full: spill into the trie
}

// MarkShared records that a second view of the receiver's tail is about to
// be handed out (see Sealed); subsequent SetOwned calls copy the tail
// before writing inside its shared length. The single-owner façades call
// this on the parent side of a clone, keeping the parent's spare tail
// capacity — and therefore its in-place append run — intact.
func (v *Vector[T]) MarkShared() { v.sharedTail = true }

// SetOwned is Set for a caller that exclusively owns the receiver (same
// contract as AppendOwned): when the index lands in a tail that no sealed
// view shares and that carries spare capacity — the signature of owned
// growth, never of a freshly shared backing — the element is written in
// place. A run of owned overwrites then amortizes to at most one tail copy
// instead of one per write. Trie-resident indexes take the ordinary
// path-copying route, which never touches the tail.
func (v Vector[T]) SetOwned(i int, x T) Vector[T] {
	return v.set(i, x, true)
}

// ownsSpareTail is the in-place rule of the owned mutators: no sealed view
// shares the tail, and it carries spare capacity.
func (v Vector[T]) ownsSpareTail() bool {
	return !v.sharedTail && cap(v.tail) > len(v.tail)
}

// setTailOwned overwrites tail slot k under SetOwned's contract.
func (v Vector[T]) setTailOwned(k int, x T) Vector[T] {
	if v.ownsSpareTail() {
		v.tail[k] = x
		return v
	}
	chunkAllocs.Add(1)
	nt := make([]T, len(v.tail), tailCap(len(v.tail)))
	copy(nt, v.tail)
	nt[k] = x
	// Sealed tail with no reader attached: the copy strands the old chunk,
	// so hand it back — without this, a seal/overwrite cycle leaks one
	// chunk per overwrite.
	v.installTail(nt)
	return v
}

// installTail replaces the tail with a fresh chunk, releasing the old one
// unless a sealed view still reads it.
func (v *Vector[T]) installTail(nt []T) {
	if !v.sharedTail {
		releaseChunk(v.tail)
	}
	v.tail = nt
	v.sharedTail = false
}

// Sealed returns the vector with its tail capacity clipped to its length,
// so a later AppendOwned on either the receiver's copy or the result must
// copy the tail before writing. Callers handing out a second reference to
// a vector whose tail may carry spare capacity (clone, adopt) seal it
// first; sealing a vector with an exact-capacity tail is a no-op. The
// result carries the shared-tail mark: it observes the receiver's
// backing, so an owned mutator on the result must copy — never release —
// that chunk.
func (v Vector[T]) Sealed() Vector[T] {
	v.tail = v.tail[:len(v.tail):len(v.tail)]
	v.sharedTail = true
	return v
}

// SealTail seals the receiver in place. The no-spare-capacity check makes
// repeated sealing free: only the first seal after an owned append writes
// anything, which matters on the clone-per-spawn hot path where the same
// structure is cloned for many children in a row.
func (v *Vector[T]) SealTail() {
	if n := len(v.tail); cap(v.tail) > n {
		v.tail = v.tail[:n:n]
	}
}

func newPath[T any](level uint, n *node[T]) *node[T] {
	if level == 0 {
		return n
	}
	ret := &node[T]{}
	ret.children[0] = newPath(level-bits, n)
	return ret
}

func pushTail[T any](parent *node[T], level uint, lastIdx int, tailNode *node[T]) *node[T] {
	idx := (lastIdx >> level) & mask
	ret := &node[T]{children: parent.children}
	if level == bits {
		ret.children[idx] = tailNode
	} else {
		child := parent.children[idx]
		if child == nil {
			ret.children[idx] = newPath(level-bits, tailNode)
		} else {
			ret.children[idx] = pushTail(child, level-bits, lastIdx, tailNode)
		}
	}
	return ret
}

// Set returns a vector with index i replaced by x. It panics when i is
// out of range.
func (v Vector[T]) Set(i int, x T) Vector[T] {
	return v.set(i, x, false)
}

// set is Set (owned false) and SetOwned (owned true). A trie write copies
// the path and keeps the tail, shared-tail mark included; a tail write
// outside SetOwned's rule installs a fresh copy.
func (v Vector[T]) set(i int, x T, owned bool) Vector[T] {
	if i < 0 || i >= v.count {
		panic(fmt.Sprintf("cow: index %d out of range [0,%d)", i, v.count))
	}
	off := v.count - len(v.tail)
	switch {
	case i < off:
		v.root = setInTrie(v.root, v.shift, i, x)
	case owned:
		return v.setTailOwned(i-off, x)
	default:
		chunkAllocs.Add(1)
		v.tail = append([]T(nil), v.tail...)
		v.tail[i-off] = x
		v.sharedTail = false
	}
	return v
}

// setInTrie copies the path from n, a node at level, to trie index i and
// writes x there. Relaxed nodes are walked by their size tables, which the
// copies share.
func setInTrie[T any](n *node[T], level uint, i int, x T) *node[T] {
	if level == 0 {
		ret := newLeaf(n.values)
		ret.values[i&mask] = x
		return ret
	}
	ret := &node[T]{children: n.children, sizes: n.sizes}
	j := (i >> level) & mask
	if n.sizes != nil {
		j, i = n.sizes.find(i, level)
	}
	ret.children[j] = setInTrie(n.children[j], level-bits, i, x)
	return ret
}

// Pop returns a vector with the last element removed. It panics on an
// empty vector.
func (v Vector[T]) Pop() Vector[T] {
	if v.relaxed() {
		return v.popRelaxed()
	}
	if v.count == 0 {
		panic("cow: pop of empty vector")
	}
	if v.count == 1 {
		return Vector[T]{shift: bits}
	}
	if v.count-v.tailOffset() > 1 {
		// Clip capacity along with length: the dropped slot may still be
		// visible through another vector sharing this tail, so the result
		// must never let AppendOwned write it in place. The shared-tail
		// mark rides along — the clipped view is the same backing, and a
		// later owned mutator must not release (zero) it out from under a
		// clone.
		n := len(v.tail) - 1
		return Vector[T]{count: v.count - 1, shift: v.shift, root: v.root, tail: v.tail[:n:n], sharedTail: v.sharedTail}
	}
	// Tail exhausted: pull the previous leaf out of the trie as the new
	// tail. Keep the (now unused) rightmost path; it is unreachable via
	// indices and harmless, and avoiding the extra surgery keeps Pop
	// simple — Get/Set/Append never see it.
	newCount := v.count - 1
	lastIdx := newCount - 1
	n := v.root
	for level := v.shift; level > 0; level -= bits {
		n = n.children[(lastIdx>>level)&mask]
	}
	chunkAllocs.Add(1)
	if v.shift == 0 {
		// The zero value grows its first leaf as the root itself. Pulled
		// out, that leaf leaves no trie: a stale leaf root would send the
		// next push down into a leaf's children.
		return Vector[T]{count: newCount, shift: bits, tail: append([]T(nil), n.values...)}
	}
	return Vector[T]{count: newCount, shift: v.shift, root: v.root, tail: append([]T(nil), n.values...)}
}

// popRelaxed is Pop on a relaxed vector (which is never empty). The tail
// is clipped like a strict one; once it is empty, the trie's last leaf
// leaves the trie and, minus its last element, becomes the tail.
func (v Vector[T]) popRelaxed() Vector[T] {
	if n := len(v.tail); n > 0 {
		v.tail = v.tail[: n-1 : n-1]
		v.count--
		return v
	}
	leaf, _ := v.leafFor(v.count - 1)
	v, _ = v.editTrie(v.count-len(leaf), len(leaf), nil)
	chunkAllocs.Add(1)
	v.tail = append([]T(nil), leaf[:len(leaf)-1]...)
	v.count += len(v.tail)
	v.sharedTail = false
	return v
}

// Splice returns the vector with the del elements at pos replaced by ins.
// A splice whose deleted and inserted elements fit in one leaf copies only
// that leaf and its path: the copied nodes become relaxed, and a leaf or
// node that overflows splits in two. A splice inside the tail edits the
// tail, in place under SetOwned's rule (no sealed view, spare capacity);
// a tail that outgrows width pushes a full leaf into the trie. Wider
// splices rebuild with FromSlice, and so does a trie fragmented past twice
// the leaves a packed one needs. Splice is an owned mutator like
// SetOwned: the receiver's tail may be edited in place or released, so
// the caller must discard the receiver. It panics when the range is out
// of bounds.
func (v Vector[T]) Splice(pos, del int, ins ...T) Vector[T] {
	if pos < 0 || del < 0 || pos+del > v.count {
		panic(fmt.Sprintf("cow: splice range [%d,%d) out of range [0,%d]", pos, pos+del, v.count))
	}
	if del == 0 && len(ins) == 0 {
		return v
	}
	if off := v.count - len(v.tail); len(ins) <= width {
		switch {
		case pos >= off:
			if w, ok := v.spliceTail(pos-off, del, ins); ok {
				return w
			}
		case pos+del <= off:
			if w, ok := v.editTrie(pos, del, ins); ok {
				if w.fragmented() {
					return w.Compact()
				}
				return w
			}
		}
	}
	out := slices.Replace(v.Slice(), pos, pos+del, ins...)
	v.ReleaseOwned()
	return FromSlice(out)
}

// spliceTail replaces the del tail elements at tail index k with ins. ok
// is false when a strict vector's tail would empty while its trie still
// holds elements (a strict tail is never empty).
func (v Vector[T]) spliceTail(k, del int, ins []T) (Vector[T], bool) {
	n := len(v.tail)
	m := n - del + len(ins)
	if m == 0 && !v.relaxed() && v.count > n {
		return v, false
	}
	trie := v.count - n
	if v.ownsSpareTail() && m <= cap(v.tail) {
		t := v.tail[:max(n, m)]
		copy(t[k+len(ins):], v.tail[k+del:n])
		copy(t[k:], ins)
		clear(t[m:])
		v.tail = t[:m]
		v.count = trie + m
		return v, true
	}
	c := m
	if m <= width {
		c = tailCap(m)
	}
	buf := make([]T, 0, c)
	buf = append(append(append(buf, v.tail[:k]...), ins...), v.tail[k+del:]...)
	chunkAllocs.Add(1)
	if m <= width {
		v.installTail(buf)
		v.count = trie + m
		return v, true
	}
	// Overflow: the first width elements make a full tail, and appending
	// the rest pushes it into the trie as a leaf.
	v.installTail(buf[:width:width])
	v.count = trie + width
	for _, x := range buf[width:] {
		v = v.AppendOwned(x)
	}
	return v, true
}

// piece is a node built by editPath, with the elements and leaves below it.
type piece[T any] struct {
	n            *node[T]
	size, leaves int
}

// newRelaxed builds a relaxed node over kids, whose element counts are
// sizes.
func newRelaxed[T any](kids []*node[T], sizes []int, leaves int) piece[T] {
	t := &sizeTable{leaves: leaves}
	n := &node[T]{sizes: t}
	copy(n.children[:], kids)
	sum := 0
	for j, s := range sizes {
		sum += s
		t.cum[j] = sum
	}
	return piece[T]{n, sum, leaves}
}

// leafCount returns the number of leaves below n, a node at level holding
// size elements.
func leafCount[T any](n *node[T], level uint, size int) int {
	switch {
	case level == 0:
		return 1
	case n.sizes != nil:
		return n.sizes.leaves
	}
	return size >> bits // strict: every leaf is full
}

// childSizes writes the element count of each of n's children into out
// and returns the number of children. n is a node at level holding size
// elements; children of a strict node past size (stale paths Pop leaves
// behind) do not count.
func childSizes[T any](n *node[T], level uint, size int, out *[width + 1]int) int {
	nc := 0
	if t := n.sizes; t != nil {
		for prev := 0; nc < width && n.children[nc] != nil; nc++ {
			out[nc] = t.cum[nc] - prev
			prev = t.cum[nc]
		}
		return nc
	}
	for rem := size; rem > 0; rem -= 1 << level {
		out[nc] = min(rem, 1<<level)
		nc++
	}
	return nc
}

// editPath copies the path from n — a node at level holding size elements
// — down to the leaf holding index i (the last leaf when i == size), and
// there replaces del elements at i with ins. It returns the nodes that
// replace n: none when n empties, two when it overflows and splits, B-tree
// style. ok is false, before anything is allocated, when the deleted range
// runs past the leaf.
func editPath[T any](n *node[T], level uint, size, i, del int, ins []T) (out [2]piece[T], k int, ok bool) {
	if level == 0 {
		if i+del > len(n.values) {
			return out, 0, false
		}
		m := len(n.values) - del + len(ins)
		if m == 0 {
			return out, 0, true
		}
		vals := make([]T, 0, m)
		vals = append(append(append(vals, n.values[:i]...), ins...), n.values[i+del:]...)
		if m <= width {
			out[0] = piece[T]{&node[T]{values: vals}, m, 1}
			return out, 1, true
		}
		h := (m + 1) / 2
		out[0] = piece[T]{&node[T]{values: vals[:h:h]}, h, 1}
		out[1] = piece[T]{&node[T]{values: vals[h:]}, m - h, 1}
		return out, 2, true
	}
	var sizes [width + 1]int
	nc := childSizes(n, level, size, &sizes)
	j, start := 0, 0
	for j < nc-1 && start+sizes[j] <= i {
		start += sizes[j]
		j++
	}
	sub, sk, ok := editPath(n.children[j], level-bits, sizes[j], i-start, del, ins)
	if !ok {
		return out, 0, false
	}
	leaves := leafCount(n, level, size) - leafCount(n.children[j], level-bits, sizes[j])
	var kidBuf [width + 1]*node[T]
	var sizeBuf [width + 1]int
	kids := append(kidBuf[:0], n.children[:j]...)
	ks := append(sizeBuf[:0], sizes[:j]...)
	for _, p := range sub[:sk] {
		kids, ks = append(kids, p.n), append(ks, p.size)
		leaves += p.leaves
	}
	kids = append(kids, n.children[j+1:nc]...)
	ks = append(ks, sizes[j+1:nc]...)
	switch {
	case len(kids) == 0:
		return out, 0, true
	case len(kids) <= width:
		out[0] = newRelaxed(kids, ks, leaves)
		return out, 1, true
	}
	h := (len(kids) + 1) / 2
	left := 0
	for c := range kids[:h] {
		left += leafCount(kids[c], level-bits, ks[c])
	}
	out[0] = newRelaxed(kids[:h], ks[:h], left)
	out[1] = newRelaxed(kids[h:], ks[h:], leaves-left)
	return out, 2, true
}

// editTrie is the one-leaf splice on the trie: the del elements at trie
// index i become ins, and the tail is untouched. The result is relaxed,
// or, when the trie empties, the strict vector of the tail alone. ok is
// false when the deleted range runs past the leaf holding i.
func (v Vector[T]) editTrie(i, del int, ins []T) (Vector[T], bool) {
	out, k, ok := editPath(v.root, v.shift, v.count-len(v.tail), i, del, ins)
	if !ok {
		return v, false
	}
	v.count += len(ins) - del
	switch {
	case k == 0:
		if v.count == 0 {
			return Vector[T]{shift: bits}, true
		}
		v.root, v.shift = nil, bits
	case k == 1 && v.shift > 0:
		v.root = out[0].n
	default:
		// The root split, or it is a leaf (the zero value's first one):
		// grow a level, so the root is a relaxed node.
		kids := []*node[T]{out[0].n, out[1].n}
		sizes := []int{out[0].size, out[1].size}
		v.root = newRelaxed(kids[:k], sizes[:k], out[0].leaves+out[1].leaves).n
		v.shift += bits
	}
	return v, true
}

// fragmented reports whether a relaxed trie holds more than twice the
// leaves a packed vector of the same length needs. Re-packing then keeps
// the depth and pointer overhead bounded; the splices that fragmented it
// pay for the O(n) rebuild, amortized O(1) each.
func (v Vector[T]) fragmented() bool {
	return v.relaxed() && v.root.sizes.leaves > 2*((v.count+width-1)>>bits)
}

// ReleaseOwned returns the receiver's tail chunk to the allocator and
// empties the vector. It is for a caller that exclusively owns the
// receiver and is abandoning it — the façade idiom when a structure
// rebuilds its backing vector and drops the old one. A tail some clone
// may still observe (MarkShared was called) is left alone; the empty
// result is safe to keep using either way.
func (v *Vector[T]) ReleaseOwned() {
	if !v.sharedTail {
		releaseChunk(v.tail)
	}
	*v = Vector[T]{shift: bits}
}

// Replace installs next into *v, releasing the previous vector's
// exclusively owned tail chunk — shorthand for the rebuild-and-release
// idiom at every façade site that swaps in a FromSlice result.
func Replace[T any](v *Vector[T], next Vector[T]) {
	old := *v
	*v = next
	old.ReleaseOwned()
}

// Compact returns a vector with the same contents and no stale storage:
// an exact-capacity tail, a packed strict trie (no relaxed nodes, no
// unreachable rightmost path left behind by Pop), and no clipped-away
// slots pinning elements. The receiver's exclusively owned tail chunk is
// released. Long-lived single-owner structures run it as their
// chunk-reclaim pass after bursts of pops or overwrites.
func (v Vector[T]) Compact() Vector[T] {
	out := FromSlice(v.Slice())
	out.SealTail()
	v.ReleaseOwned()
	return out
}

// Slice returns the vector's contents as a fresh slice. It walks the trie
// leaves directly — O(n) — instead of paying Get's O(log n) descent per
// element.
func (v Vector[T]) Slice() []T {
	out := make([]T, 0, v.count)
	if v.root != nil {
		out = appendNode(out, v.root, v.shift, v.count-len(v.tail))
	}
	return append(out, v.tail...)
}

// appendNode appends the size elements below n, a node at level, walking
// relaxed nodes by their size tables and strict subtrees with appendTrie.
func appendNode[T any](dst []T, n *node[T], level uint, size int) []T {
	if n.sizes == nil {
		return appendTrie(dst, n, len(dst)+size)
	}
	for j, prev := 0, 0; j < width && n.children[j] != nil; j++ {
		dst = appendNode(dst, n.children[j], level-bits, n.sizes.cum[j]-prev)
		prev = n.sizes.cum[j]
	}
	return dst
}

// appendTrie appends a strict subtree's leaves, left to right, until dst
// reaches limit. The limit guards against the unreachable rightmost path
// Pop can leave behind: cutting there stops exactly before any stale leaf.
func appendTrie[T any](dst []T, n *node[T], limit int) []T {
	if n == nil || len(dst) >= limit {
		return dst
	}
	if n.values != nil {
		take := limit - len(dst)
		if take > len(n.values) {
			take = len(n.values)
		}
		return append(dst, n.values[:take]...)
	}
	for _, c := range n.children {
		if c == nil || len(dst) >= limit {
			break
		}
		dst = appendTrie(dst, c, limit)
	}
	return dst
}
