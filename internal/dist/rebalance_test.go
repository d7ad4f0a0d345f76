package dist

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mergeable"
	"repro/internal/task"
	"repro/internal/testutil"
)

// rebalanceScenario runs the canonical drain workload: one gated remote
// task placed on node 0 plus parent-side appends. When drain is true,
// node 0 starts draining while the remote execution is parked before its
// first (and only) merge, so the cluster must tear the conversation down
// and re-spawn the task from its original snapshot on node 1. Returns
// the combined fingerprint and the list values.
func rebalanceScenario(t testing.TB, cluster *Cluster, drain bool) (uint64, []int) {
	t.Helper()
	list := mergeable.NewList[int]()
	cnt := mergeable.NewCounter(0)
	gate := newKillGate()
	if drain {
		curGate.Store(gate)
	} else {
		curGate.Store(nil)
	}
	err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		l := data[0].(*mergeable.List[int])
		h := cluster.SpawnRemote(ctx, 0, "failover-work", l, data[1])
		if drain {
			<-gate.started // the doomed execution is live on node 0
			if err := cluster.Drain(0); err != nil {
				return err
			}
			close(gate.release)
		}
		l.Append(99)
		return ctx.MergeAllFromSet([]*task.Task{h})
	}, list, cnt)
	if err != nil {
		t.Fatal(err)
	}
	return mergeable.CombineFingerprints(list.Fingerprint(), cnt.Fingerprint()), list.Values()
}

// TestRebalanceMidFlight: draining the node that hosts a pre-progress
// task moves the task, and the merged state is bit-identical to a run
// where the task never moved.
func TestRebalanceMidFlight(t *testing.T) {
	testutil.WithTimeout(t, 60*time.Second, func() {
		clean := NewClusterWith(Options{Nodes: 2, HeartbeatInterval: -1})
		wantFP, wantVals := rebalanceScenario(t, clean, false)
		clean.Close()

		churned := NewClusterWith(Options{Nodes: 2, HeartbeatInterval: -1, RecvTimeout: 5 * time.Second})
		defer churned.Close()
		gotFP, gotVals := rebalanceScenario(t, churned, true)

		if gotFP != wantFP {
			t.Fatalf("fingerprint moved=%x never-moved=%x; values %v vs %v", gotFP, wantFP, gotVals, wantVals)
		}
		if got := churned.Stats().Get("rebalance"); got != 1 {
			t.Fatalf("rebalance counter = %d, want 1", got)
		}
		if got := churned.Stats().Get("failover"); got != 0 {
			t.Fatalf("failover counter = %d, want 0 (this was a drain, not a death)", got)
		}
	})
}

// TestRebalanceDeterminismAcrossProcs is the GOMAXPROCS-swept acceptance
// test: the fingerprint of a run whose task is moved mid-flight must be
// bit-identical to the never-moved fingerprint on every procs setting —
// the paper's "regardless of the number of cores" claim extended to
// membership churn.
func TestRebalanceDeterminismAcrossProcs(t *testing.T) {
	testutil.WithTimeout(t, 180*time.Second, func() {
		clean := NewClusterWith(Options{Nodes: 2, HeartbeatInterval: -1})
		wantFP, _ := rebalanceScenario(t, clean, false)
		clean.Close()

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for run := 0; run < 3; run++ {
				cluster := NewClusterWith(Options{Nodes: 2, HeartbeatInterval: -1, RecvTimeout: 5 * time.Second})
				gotFP, gotVals := rebalanceScenario(t, cluster, true)
				cluster.Close()
				if gotFP != wantFP {
					t.Fatalf("procs=%d run=%d: moved fingerprint %x != never-moved %x (values %v)",
						procs, run, gotFP, wantFP, gotVals)
				}
			}
		}
	})
}

// TestLeaveAfterWorkCompletes: a graceful leave waits for the member's
// conversations, then departs; the run is unaffected and the member's
// slot stays resolvable as a tombstone.
func TestLeaveAfterWorkCompletes(t *testing.T) {
	testutil.WithTimeout(t, 30*time.Second, func() {
		cluster := NewClusterWith(Options{Nodes: 2, HeartbeatInterval: -1})
		defer cluster.Close()
		list := mergeable.NewList[int]()
		err := task.Run(func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			cluster.SpawnRemote(ctx, 0, "append5", data[0])
			if err := ctx.MergeAll(); err != nil {
				return err
			}
			if err := cluster.Leave(0); err != nil {
				return err
			}
			// Work after the leave lands on the survivor.
			cluster.SpawnRemote(ctx, 0, "append5", data[0])
			return ctx.MergeAll()
		}, list)
		if err != nil {
			t.Fatal(err)
		}
		if got := list.Values(); len(got) != 2 {
			t.Fatalf("list = %v, want two appends", got)
		}
		if got := cluster.Stats().Get("member_leave"); got != 1 {
			t.Fatalf("member_leave = %d, want 1", got)
		}
		if got := cluster.Stats().Get("leave_forced"); got != 0 {
			t.Fatalf("leave_forced = %d, want 0 (node was idle)", got)
		}
	})
}
