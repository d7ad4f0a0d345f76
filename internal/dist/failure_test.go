package dist

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/ot"
	"repro/internal/task"

	"repro/internal/testutil"
)

func init() {
	RegisterTreeCodec("test-tree")
	RegisterFunc("slow-sync-loop", func(wctx *WorkerCtx, data []mergeable.Mergeable) error {
		c := data[0].(*mergeable.Counter)
		for {
			c.Inc()
			time.Sleep(5 * time.Millisecond)
			if err := wctx.Sync(); err != nil {
				return err
			}
		}
	})
}

// TestNodeFailureSurfacesAsError kills a worker node (closes its
// listener, which tears down the task connections) while a remote task
// runs; the coordinator-side proxy must fail with a transport error
// rather than hang, and the parent unwinds normally.
func TestNodeFailureSurfacesAsError(t *testing.T) {
	testutil.WithTimeout(t, 60*time.Second, func() {
		cluster := NewCluster(1)
		c := mergeable.NewCounter(0)
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "slow-sync-loop", data[0])
			// Let at least one sync round through, then kill the node.
			if err := ctx.MergeAll(); err != nil {
				return err
			}
			cluster.Close() // node failure
			mergeErr := ctx.MergeAll()
			if mergeErr == nil {
				t.Error("node failure should surface as a merge error")
			}
			if errors.Is(mergeErr, task.ErrAborted) {
				t.Errorf("unexpected abort classification: %v", mergeErr)
			}
			return nil
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value() < 1 {
			t.Fatalf("pre-failure sync should have merged, counter = %d", c.Value())
		}
	})
}

// TestDialAfterClusterClose covers spawning against a dead cluster.
func TestDialAfterClusterClose(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewCluster(1)
		cluster.Close()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "append5", data[0])
			if mergeErr := ctx.MergeAll(); mergeErr == nil {
				t.Error("spawn against a closed cluster should fail")
			}
			return nil
		}, mergeable.NewList[int]())
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestExtendedCodecRoundtrips covers the tree codec, registered on demand.
func TestExtendedCodecRoundtrips(t *testing.T) {
	tr := mergeable.NewTree("root")
	if err := tr.InsertNode([]int{0}, "child"); err != nil {
		t.Fatal(err)
	}
	tr.Log().TakeLocal()
	codec, err := codecFor(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.Encode(tr)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := codec.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Fingerprint() != tr.Fingerprint() {
		t.Error("roundtrip changed the value")
	}
}

// TestTreeSnapshotRoundtrip pins the Snapshot/NewTreeFromSnapshot pair the
// tree codec relies on.
func TestTreeSnapshotRoundtrip(t *testing.T) {
	tr := mergeable.NewTree("r")
	if err := tr.InsertNode([]int{0}, "a"); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	// Mutating the snapshot must not touch the tree.
	snap.Children[0].Value = "mutated"
	if tr.String() != "r(a)" {
		t.Fatalf("snapshot aliases tree: %s", tr.String())
	}
	rebuilt := mergeable.NewTreeFromSnapshot(snap)
	if rebuilt.String() != "r(mutated)" {
		t.Fatalf("rebuilt = %s", rebuilt.String())
	}
	empty := mergeable.NewTreeFromSnapshot(nil)
	if _, err := empty.Value(); err != nil {
		t.Fatalf("nil snapshot should build an empty tree: %v", err)
	}
	_ = ot.TreeNode{} // keep the ot import for the codec's payload note
}
