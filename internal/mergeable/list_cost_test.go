package mergeable

import (
	"math/rand"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestListInteriorEditCost holds the cost model of an interior List edit:
// it copies one leaf and its path, so the same edit on a 64× longer list
// may allocate at most 3× the bytes, and no edit allocates 4 KB. An edit
// that rebuilds the whole vector reads ≈ 64×.
func TestListInteriorEditCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would swamp the measurement")
	}
	bytesPerEdit := func(n int, edit func(l *List[int], i int)) float64 {
		l := NewList(make([]int, n)...)
		r := rand.New(rand.NewSource(1))
		const edits = 256
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < edits; k++ {
			edit(l, n/4+r.Intn(n/2))
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / edits
	}
	for _, c := range []struct {
		name string
		edit func(l *List[int], i int)
	}{
		{"Insert", func(l *List[int], i int) { l.Insert(i, 7) }},
		{"Delete", func(l *List[int], i int) { l.Delete(i) }},
	} {
		small, large := bytesPerEdit(1<<10, c.edit), bytesPerEdit(1<<16, c.edit)
		t.Logf("%s: %.0f B per edit at 1024 elements, %.0f at 65536", c.name, small, large)
		if large > 3*small || large >= 4096 {
			t.Errorf("%s: %.0f B per edit at 65536 elements against %.0f at 1024; want ≤ 3× and < 4096", c.name, large, small)
		}
	}
}
