package shard

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

func TestRingOwnerStableAndTotal(t *testing.T) {
	r := New([]int{0, 1, 2, 3}, 0, 7)
	if r.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", r.Epoch())
	}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		o := r.Owner(doc)
		if !r.Contains(o) {
			t.Fatalf("owner %d of %q is not a member", o, doc)
		}
		if o2 := r.Owner(doc); o2 != o {
			t.Fatalf("owner of %q unstable: %d then %d", doc, o, o2)
		}
		counts[o]++
	}
	for id, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns nothing", id)
		}
		if n > 600 {
			t.Fatalf("shard %d owns %d/1000 docs — skew too extreme", id, n)
		}
	}
}

func TestRingSingleShardOwnsAll(t *testing.T) {
	r := New([]int{5}, 8, 1)
	for i := 0; i < 64; i++ {
		if o := r.Owner(fmt.Sprintf("d%d", i)); o != 5 {
			t.Fatalf("owner = %d, want 5", o)
		}
	}
	if empty := New(nil, 8, 1); empty.Owner("x") != -1 {
		t.Fatal("empty ring must return -1")
	}
}

// TestRingMinimalMovement pins the consistent-hashing property: adding a
// shard must only move documents onto the new shard, never shuffle
// ownership between surviving shards.
func TestRingMinimalMovement(t *testing.T) {
	before := New([]int{0, 1, 2}, 0, 1)
	after := New([]int{0, 1, 2, 3}, 0, 2)
	moved := 0
	for i := 0; i < 500; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		was, is := before.Owner(doc), after.Owner(doc)
		if was != is {
			moved++
			if is != 3 {
				t.Fatalf("doc %q moved %d→%d; growth may only move docs to the new shard", doc, was, is)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no documents moved to the new shard")
	}
}

func TestRingFromMembers(t *testing.T) {
	members := []dist.MemberInfo{
		{Node: 0, State: dist.StateActive, Healthy: true},
		{Node: 1, State: dist.StateDraining, Healthy: true},
		{Node: 2, State: dist.StateActive, Healthy: false},
		{Node: 3, State: dist.StateActive, Healthy: true},
	}
	r := FromMembers(members, 0, 9)
	if got := r.IDs(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("ring members = %v, want [0 3] (draining and unhealthy excluded)", got)
	}
	if r.Epoch() != 9 {
		t.Fatalf("epoch = %d, want 9", r.Epoch())
	}
}

// TestRingOwnerNoAllocs is the ring half of the routing budget of zero
// allocations; collab's TestRouteOfNoAllocs holds the live router's half.
func TestRingOwnerNoAllocs(t *testing.T) {
	r := New([]int{0, 1, 2, 3}, 0, 1)
	docs := []string{"doc-a", "doc-b", "doc-c", "doc-d"}
	avg := testing.AllocsPerRun(200, func() {
		for _, d := range docs {
			if r.Owner(d) < 0 {
				t.Fatal("no owner")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("Ring.Owner allocates %.1f times per 4 lookups, want 0", avg)
	}
}
