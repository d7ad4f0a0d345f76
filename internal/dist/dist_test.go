package dist

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/task"

	"repro/internal/testutil"
)

func init() {
	RegisterListCodec[int]("test-list-int")
	RegisterQueueCodec[string]("test-queue-string")
	RegisterMapCodec[string, int]("test-map-string-int")
	RegisterSetCodec[string]("test-set-string")
	RegisterRegisterCodec[int]("test-register-int")

	RegisterFunc("append5", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Append(5)
		return nil
	})
	RegisterFunc("sync-loop", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		l := data[0].(*mergeable.List[int])
		for i := 0; i < 3; i++ {
			l.Append(i)
			if err := wctx.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
	RegisterFunc("sync-until-aborted", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		c := data[0].(*mergeable.Counter)
		for {
			c.Inc()
			if err := wctx.Sync(); err != nil {
				if errors.Is(err, task.ErrAborted) {
					return nil
				}
				return err
			}
		}
	})
	RegisterFunc("push-big", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		l := data[0].(*mergeable.List[int])
		l.Append(1000)
		err := wctx.Sync()
		if !errors.Is(err, task.ErrMergeRejected) {
			return fmt.Errorf("expected rejection, got %v", err)
		}
		if l.Len() != 0 {
			return fmt.Errorf("copy not refreshed after rejection: %v", l.Values())
		}
		l.Append(1) // acceptable retry
		return nil
	})
	RegisterFunc("fail", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Append(99)
		return errors.New("remote boom")
	})
	RegisterFunc("panic", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		panic("remote kaboom")
	})
}

// TestRemoteListing1 is the paper's Listing 1 with the child running on a
// remote node: same result, deterministically.
func TestRemoteListing1(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		list := mergeable.NewList(1, 2, 3)
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			l := data[0].(*mergeable.List[int])
			h := cluster.SpawnRemote(ctx, 0, "append5", l)
			l.Append(4)
			return ctx.MergeAllFromSet([]*task.Task{h})
		}, list)
		if err != nil {
			t.Fatal(err)
		}
		if got := list.Values(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
			t.Fatalf("list = %v", got)
		}
	})
}

// TestRemoteSyncLoop mirrors the local sync-loop test over the wire.
func TestRemoteSyncLoop(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		list := mergeable.NewList[int]()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			l := data[0].(*mergeable.List[int])
			h := cluster.SpawnRemote(ctx, 0, "sync-loop", l)
			for i := 0; i < 3; i++ {
				if err := ctx.MergeAllFromSet([]*task.Task{h}); err != nil {
					return err
				}
				l.Append(100 + i)
			}
			return ctx.MergeAllFromSet([]*task.Task{h})
		}, list)
		if err != nil {
			t.Fatal(err)
		}
		if got := list.Values(); !reflect.DeepEqual(got, []int{0, 100, 1, 101, 2, 102}) {
			t.Fatalf("list = %v", got)
		}
	})
}

// TestRemoteAbort aborts a long-running remote task; the worker observes
// ErrAborted through its remote Sync and unwinds; its changes vanish.
func TestRemoteAbort(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		c := mergeable.NewCounter(0)
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			h := cluster.SpawnRemote(ctx, 0, "sync-until-aborted", data[0])
			// Let a few rounds through, then abort.
			for i := 0; i < 3; i++ {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			h.Abort()
			for i := 0; i < 4; i++ { // resume + collect
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			return nil
		}, c)
		if err != nil && !errors.Is(err, task.ErrAborted) {
			t.Fatal(err)
		}
		if c.Value() < 2 {
			t.Fatalf("counter = %d, want the pre-abort increments", c.Value())
		}
	})
}

// TestRemoteMergeRejected exercises the condition/rollback path across
// the wire: the worker's Sync reports the rejection and its copies are
// refreshed.
func TestRemoteMergeRejected(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		list := mergeable.NewList[int]()
		cond := task.WithCondition(func(preview []mergeable.Mergeable) bool {
			for _, v := range preview[0].(*mergeable.List[int]).Values() {
				if v >= 100 {
					return false
				}
			}
			return true
		})
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			h := cluster.SpawnRemote(ctx, 0, "push-big", data[0])
			if err := ctx.MergeAllFromSet([]*task.Task{h}, cond); !errors.Is(err, task.ErrMergeRejected) {
				t.Errorf("first merge = %v, want rejection", err)
			}
			return ctx.MergeAllFromSet([]*task.Task{h}, cond)
		}, list)
		if err != nil {
			t.Fatal(err)
		}
		if got := list.Values(); !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("list = %v, want [1]", got)
		}
	})
}

// TestRemoteFailureDiscards verifies a failing remote task contributes
// nothing and surfaces as a remote error.
func TestRemoteFailureDiscards(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		list := mergeable.NewList[int]()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "fail", data[0])
			mergeErr := ctx.MergeAll()
			if mergeErr == nil || !IsRemoteError(mergeErr) {
				t.Errorf("MergeAll = %v, want remote error", mergeErr)
			}
			return nil
		}, list)
		if err != nil {
			t.Fatal(err)
		}
		if list.Len() != 0 {
			t.Fatalf("failed remote task's changes leaked: %v", list.Values())
		}
	})
}

// TestRemotePanicPropagates verifies remote panics arrive as remote
// errors carrying the panic text.
func TestRemotePanicPropagates(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "panic", data[0])
			mergeErr := ctx.MergeAll()
			if mergeErr == nil || !IsRemoteError(mergeErr) {
				t.Errorf("MergeAll = %v", mergeErr)
			}
			return nil
		}, mergeable.NewList[int]())
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestRemoteUnknownFuncAndNode covers the registration error paths.
func TestRemoteUnknownFuncAndNode(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "no-such-func", data[0])
			if mergeErr := ctx.MergeAll(); mergeErr == nil {
				t.Error("unknown function should fail the remote task")
			}
			cluster.SpawnRemote(ctx, 99, "append5", data[0])
			if mergeErr := ctx.MergeAll(); mergeErr == nil {
				t.Error("unknown node should fail the proxy")
			}
			return nil
		}, mergeable.NewList[int]())
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpawnRemoteEncodeError: a spawn over a structure with no registered
// codec fails the proxy with the codec error instead of reaching a node.
func TestSpawnRemoteEncodeError(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "append5", data[0])
			mergeErr := ctx.MergeAll()
			if mergeErr == nil || !strings.Contains(mergeErr.Error(), "dist: no codec registered") {
				t.Errorf("spawn without a codec: merge error %v", mergeErr)
			}
			return nil
		}, mergeable.NewList[float32]()) // no codec registered for this type
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestDistributedDeterminism spreads conflicting workers across nodes and
// demands identical results on every run — the determinism guarantee
// surviving distribution.
func TestDistributedDeterminism(t *testing.T) {
	RegisterFunc("det-insert-0", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Insert(0, 1)
		data[1].(*mergeable.Counter).Add(10)
		return nil
	})
	RegisterFunc("det-insert-1", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Insert(0, 2)
		data[1].(*mergeable.Counter).Add(20)
		return nil
	})
	RegisterFunc("det-insert-2", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		data[0].(*mergeable.List[int]).Insert(0, 3)
		data[1].(*mergeable.Counter).Add(30)
		return nil
	})
	testutil.WithTimeout(t, 60*time.Second, func() {
		run := func() (uint64, []int) {
			cluster := NewCluster(3)
			defer cluster.Close()
			list := mergeable.NewList(0)
			cnt := mergeable.NewCounter(0)
			err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				for i := 0; i < 3; i++ {
					cluster.SpawnRemote(ctx, i, fmt.Sprintf("det-insert-%d", i), data[0], data[1])
				}
				return ctx.MergeAll()
			}, list, cnt)
			if err != nil {
				t.Fatal(err)
			}
			return mergeable.CombineFingerprints(list.Fingerprint(), cnt.Fingerprint()), list.Values()
		}
		want, vals := run()
		// Creation-order merging with earlier-merge priority: worker 0's
		// insert lands first, later inserts shift right behind it.
		if !reflect.DeepEqual(vals, []int{1, 2, 3, 0}) {
			t.Fatalf("merged list = %v, want creation-order conflict resolution", vals)
		}
		for i := 0; i < 8; i++ {
			if got, _ := run(); got != want {
				t.Fatalf("run %d: fingerprint %x != %x", i, got, want)
			}
		}
	})
}

// TestMixedLocalAndRemoteChildren merges local and remote children of the
// same parent in creation order.
func TestMixedLocalAndRemoteChildren(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		defer cluster.Close()
		list := mergeable.NewList[int]()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			l := data[0].(*mergeable.List[int])
			cluster.SpawnRemote(ctx, 0, "append5", l)
			ctx.Spawn(func(ctx *task.Ctx, d []mergeable.Mergeable) error {
				d[0].(*mergeable.List[int]).Append(7)
				return nil
			}, l)
			return ctx.MergeAll()
		}, list)
		if err != nil {
			t.Fatal(err)
		}
		if got := list.Values(); !reflect.DeepEqual(got, []int{5, 7}) {
			t.Fatalf("list = %v, want [5 7] (creation order)", got)
		}
	})
}

// TestCodecRoundtrips covers every provided codec.
func TestCodecRoundtrips(t *testing.T) {
	cases := []mergeable.Mergeable{
		mergeable.NewList(1, 2, 3),
		func() mergeable.Mergeable { q := mergeable.NewQueue[string](); q.Push("a"); q.Push("b"); return q }(),
		func() mergeable.Mergeable {
			m := mergeable.NewMap[string, int]()
			m.Set("k", 7)
			return m
		}(),
		mergeable.NewSet("x", "y"),
		mergeable.NewRegister(42),
		mergeable.NewCounter(13),
		mergeable.NewText("héllo"),
	}
	for _, m := range cases {
		codec, err := codecFor(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		b, err := codec.Encode(m)
		if err != nil {
			t.Fatalf("%T encode: %v", m, err)
		}
		back, err := codec.Decode(b)
		if err != nil {
			t.Fatalf("%T decode: %v", m, err)
		}
		if back.Fingerprint() != m.Fingerprint() {
			t.Errorf("%T: roundtrip changed the value", m)
		}
		if len(back.Log().LocalOps()) != 0 {
			t.Errorf("%T: decoded structure carries local ops", m)
		}
	}
	if _, err := codecFor(mergeable.NewMap[int, int]()); err == nil {
		t.Error("unregistered type should have no codec")
	}
	if _, err := codecByName("nope"); err == nil {
		t.Error("unknown codec name should fail")
	}
	if _, err := funcByName("nope"); err == nil {
		t.Error("unknown function name should fail")
	}
}
