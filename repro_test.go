package repro

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestQuickstartListing1 runs the README / paper Listing 1 scenario
// through the public facade.
func TestQuickstartListing1(t *testing.T) {
	list := NewList(1, 2, 3)
	err := Run(func(ctx *Ctx, data []Mergeable) error {
		l := data[0].(*List[int])
		h := ctx.Spawn(func(ctx *Ctx, data []Mergeable) error {
			data[0].(*List[int]).Append(5)
			return nil
		}, l)
		l.Append(4)
		return ctx.MergeAllFromSet([]*Task{h})
	}, list)
	if err != nil {
		t.Fatal(err)
	}
	if got := list.Values(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("list = %v", got)
	}
}

// TestFacadeConstructors touches every constructor the facade re-exports.
func TestFacadeConstructors(t *testing.T) {
	if NewList(1).Len() != 1 {
		t.Error("NewList")
	}
	if NewQueue("x").Len() != 1 {
		t.Error("NewQueue")
	}
	m := NewMap[string, int]()
	m.Set("k", 1)
	if m.Len() != 1 {
		t.Error("NewMap")
	}
	if !NewSet(1, 2).Contains(2) {
		t.Error("NewSet")
	}
	if NewRegister(7).Get() != 7 {
		t.Error("NewRegister")
	}
	if NewCounter(3).Value() != 3 {
		t.Error("NewCounter")
	}
	if NewText("ab").Len() != 2 {
		t.Error("NewText")
	}
	tr := NewTree("root")
	if v, err := tr.Value(); err != nil || v != "root" {
		t.Error("NewTree")
	}
}

// TestFacadeErrorsExported checks the sentinel errors flow through the
// facade unchanged.
func TestFacadeErrorsExported(t *testing.T) {
	err := Run(func(ctx *Ctx, data []Mergeable) error {
		if _, e := ctx.MergeAny(); !errors.Is(e, ErrNothingToMerge) {
			t.Errorf("MergeAny = %v", e)
		}
		if e := ctx.Sync(); !errors.Is(e, ErrRootSync) {
			t.Errorf("Sync = %v", e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe PanicError
	err = Run(func(ctx *Ctx, data []Mergeable) error {
		h := ctx.Spawn(func(ctx *Ctx, data []Mergeable) error { panic("x") })
		mergeErr := ctx.MergeAll()
		if !errors.As(mergeErr, &pe) {
			t.Errorf("MergeAll = %v", mergeErr)
		}
		_ = h
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeCondition exercises WithCondition through the facade.
func TestFacadeCondition(t *testing.T) {
	c := NewCounter(0)
	err := Run(func(ctx *Ctx, data []Mergeable) error {
		ctx.Spawn(func(ctx *Ctx, data []Mergeable) error {
			data[0].(*Counter).Add(100)
			return nil
		}, data[0])
		err := ctx.MergeAll(WithCondition(func(preview []Mergeable) bool {
			return preview[0].(*Counter).Value() <= 10
		}))
		if !errors.Is(err, ErrMergeRejected) {
			t.Errorf("MergeAll = %v", err)
		}
		return nil
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 {
		t.Fatalf("rejected merge leaked: %d", c.Value())
	}
}

// TestWordCountPipeline is an end-to-end "map-reduce" use of the public
// API: children count words of document shards into a shared mergeable
// map; increments to the same key conflict, so shards pre-aggregate and
// publish to distinct keys, and the parent folds — all deterministic.
func TestWordCountPipeline(t *testing.T) {
	shards := []string{
		"the quick brown fox",
		"jumps over the lazy dog",
		"the dog barks",
	}
	counts := NewMap[string, int]()
	err := Run(func(ctx *Ctx, data []Mergeable) error {
		m := data[0].(*Map[string, int])
		for i, shard := range shards {
			i, shard := i, shard
			ctx.Spawn(func(ctx *Ctx, data []Mergeable) error {
				local := map[string]int{}
				for _, w := range strings.Fields(shard) {
					local[w]++
				}
				out := data[0].(*Map[string, int])
				for w, n := range local {
					out.Set(fmt.Sprintf("shard%d/%s", i, w), n)
				}
				return nil
			}, m)
		}
		if err := ctx.MergeAll(); err != nil {
			return err
		}
		// Fold shard results into final counts.
		total := map[string]int{}
		for _, k := range m.Keys() {
			v, _ := m.Get(k)
			total[k[strings.Index(k, "/")+1:]] += v
		}
		for w, n := range total {
			m.Set("total/"+w, n)
		}
		return nil
	}, counts)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := counts.Get("total/the"); v != 3 {
		t.Fatalf("the = %d, want 3", v)
	}
	if v, _ := counts.Get("total/dog"); v != 2 {
		t.Fatalf("dog = %d, want 2", v)
	}
}

// TestFacadeDeterminism runs a facade-level scenario 8 times under each
// of GOMAXPROCS 1, 2 and 4: every run must give one fingerprint.
func TestFacadeDeterminism(t *testing.T) {
	scenario := func() (uint64, error) {
		txt := NewText("x")
		lst := NewList[int]()
		err := Run(func(ctx *Ctx, data []Mergeable) error {
			for i := 0; i < 4; i++ {
				i := i
				ctx.Spawn(func(ctx *Ctx, data []Mergeable) error {
					data[0].(*Text).Insert(0, fmt.Sprint(i))
					data[1].(*List[int]).Insert(0, i)
					return nil
				}, data[0], data[1])
			}
			return ctx.MergeAll()
		}, txt, lst)
		if err != nil {
			return 0, err
		}
		return txt.Fingerprint() ^ lst.Fingerprint(), nil
	}
	testutil.SameAcrossProcs(t, 8, []int{1, 2, 4}, scenario)
}
