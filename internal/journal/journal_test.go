package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mergeable"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/testutil"
)

func init() {
	dist.RegisterListCodec[int]("journal-test-list-int")
	dist.RegisterSetCodec[int]("journal-test-set-int")
}

func testOptions() Options {
	return Options{
		Encode:          dist.EncodeSnapshot,
		Decode:          dist.DecodeSnapshot,
		CheckpointEvery: 3,
	}
}

// anyData / anyWorkload: the acceptance workload. Three waves of three
// children drained with MergeAny — nine non-deterministic picks and nine
// root merges (checkpoints at 3, 6, 9 with CheckpointEvery=3). Every
// child's effect commutes (a distinct counter bit, a distinct set
// element) and the root's list appends are pick-independent, so the FINAL
// fingerprint is the same whatever the picks — which is what lets a
// crashed run, resumed with a different tail of free picks, be compared
// against an uninterrupted reference. Intermediate states still depend on
// the picks, so checkpoint verification stays meaningful.
func anyData() []mergeable.Mergeable {
	return []mergeable.Mergeable{mergeable.NewCounter(0), mergeable.NewSet[int](), mergeable.NewList[int]()}
}

func anyWorkload(ctx *task.Ctx, data []mergeable.Mergeable) error {
	for wave := 0; wave < 3; wave++ {
		for c := 0; c < 3; c++ {
			id := wave*3 + c
			ctx.Spawn(func(_ *task.Ctx, d []mergeable.Mergeable) error {
				d[0].(*mergeable.Counter).Add(1 << id)
				d[1].(*mergeable.Set[int]).Add(id)
				return nil
			}, data...)
		}
		for c := 0; c < 3; c++ {
			if _, err := ctx.MergeAny(); err != nil {
				return err
			}
		}
		data[2].(*mergeable.List[int]).Append(wave)
	}
	return nil
}

// orderData / orderWorkload: an order-SENSITIVE MergeAny workload — the
// final list is the pick order itself. Only a complete journal can make
// its replay exact.
func orderData() []mergeable.Mergeable {
	return []mergeable.Mergeable{mergeable.NewList[int]()}
}

func orderWorkload(ctx *task.Ctx, data []mergeable.Mergeable) error {
	for c := 0; c < 6; c++ {
		id := c
		ctx.Spawn(func(_ *task.Ctx, d []mergeable.Mergeable) error {
			d[0].(*mergeable.List[int]).Append(id)
			return nil
		}, data...)
	}
	for c := 0; c < 6; c++ {
		if _, err := ctx.MergeAny(); err != nil {
			return err
		}
	}
	return nil
}

// allData / allWorkload: a fully deterministic MergeAll workload whose
// result is order-sensitive in merge positions — recovery must reproduce
// the exact state with no picks to lean on.
func allData() []mergeable.Mergeable {
	return []mergeable.Mergeable{mergeable.NewList[int]()}
}

func allWorkload(ctx *task.Ctx, data []mergeable.Mergeable) error {
	for wave := 0; wave < 4; wave++ {
		for c := 0; c < 2; c++ {
			id := wave*2 + c
			ctx.Spawn(func(_ *task.Ctx, d []mergeable.Mergeable) error {
				d[0].(*mergeable.List[int]).Append(id)
				return nil
			}, data...)
		}
		if err := ctx.MergeAll(); err != nil {
			return err
		}
	}
	return nil
}

// TestRunJournalsAndSeals: a clean journaled run records its inputs, all
// nine picks, three checkpoints and a done record; resuming the completed
// journal replays it and verifies the sealed fingerprint.
func TestRunJournalsAndSeals(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Stats = stats.NewCounters()
	data := anyData()
	if err := Run(dir, opts, anyWorkload, data...); err != nil {
		t.Fatal(err)
	}
	want := fingerprintAll(data)

	if got := opts.Stats.Get("pick_recorded"); got != 9 {
		t.Errorf("pick_recorded = %d, want 9", got)
	}
	if got := opts.Stats.Get("checkpoint_written"); got != 3 {
		t.Errorf("checkpoint_written = %d, want 3", got)
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify(clean journal) = %v", err)
	}

	ropts := testOptions()
	ropts.Stats = stats.NewCounters()
	out, err := Resume(dir, ropts, anyWorkload)
	if err != nil {
		t.Fatalf("Resume(completed journal) = %v", err)
	}
	if got := fingerprintAll(out); got != want {
		t.Fatalf("resumed fingerprint %016x, want %016x", got, want)
	}
	if got := ropts.Stats.Get("done_verified"); got != 1 {
		t.Errorf("done_verified = %d, want 1", got)
	}
	if got := ropts.Stats.Get("pick_replayed"); got != 9 {
		t.Errorf("pick_replayed = %d, want 9", got)
	}
	if got := ropts.Stats.Get("checkpoint_verified"); got != 3 {
		t.Errorf("checkpoint_verified = %d, want 3", got)
	}
	if got := ropts.Stats.Get("pick_recorded"); got != 0 {
		t.Errorf("replay of a complete journal recorded %d fresh picks", got)
	}
}

// scriptOf returns a script that forces the root's picks in the given
// order.
func scriptOf(seqs ...uint64) *task.MergeScript {
	s := task.NewMergeScript()
	for _, seq := range seqs {
		s.Picked("r", seq)
	}
	s.Rewind()
	return s
}

// orderJournal journals orderWorkload with Options.Decider forcing the
// picks 5,4,...,0 and returns the journal's directory.
func orderJournal(t *testing.T) string {
	dir := t.TempDir()
	opts := testOptions()
	opts.Decider = scriptOf(5, 4, 3, 2, 1, 0)
	if err := Run(dir, opts, orderWorkload, orderData()...); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayExactForOrderSensitivePicks: with the COMPLETE pick script
// durable, replay is exact even for a workload whose result is the pick
// order itself — and the journaled picks take precedence over an
// Options.Decider that would force the opposite order.
func TestReplayExactForOrderSensitivePicks(t *testing.T) {
	dir := orderJournal(t)
	want := []int{5, 4, 3, 2, 1, 0}
	opts := testOptions()
	for i := 0; i < 3; i++ {
		opts.Decider = scriptOf(0, 1, 2, 3, 4, 5)
		out, err := Resume(dir, opts, orderWorkload)
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
		if got := out[0].(*mergeable.List[int]).Values(); !reflect.DeepEqual(got, want) {
			t.Fatalf("resume %d: list %v, want %v (pick order not reproduced)", i, got, want)
		}
	}
}

// TestCreateRefusesExistingRun: Create must never overwrite a run's
// history; the second Run over the same directory fails.
func TestCreateRefusesExistingRun(t *testing.T) {
	dir := t.TempDir()
	if err := Run(dir, testOptions(), anyWorkload, anyData()...); err != nil {
		t.Fatal(err)
	}
	if err := Run(dir, testOptions(), anyWorkload, anyData()...); err == nil {
		t.Fatal("second Run over an existing journal succeeded")
	}
}

// TestResumeDivergenceDetected: resuming with a DIFFERENT program against
// a journal whose picks and checkpoints describe the old one must report
// ErrDiverged (or fail outright), never silently succeed.
func TestResumeDivergenceDetected(t *testing.T) {
	dir := orderJournal(t)
	changed := func(children int) task.Func {
		return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
			for c := 0; c < children; c++ {
				id := 100 + c // different values -> different fingerprints
				ctx.Spawn(func(_ *task.Ctx, d []mergeable.Mergeable) error {
					d[0].(*mergeable.List[int]).Append(id)
					return nil
				}, data...)
			}
			for c := 0; c < children; c++ {
				if _, err := ctx.MergeAny(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// Six children: every journaled pick exists, the fingerprints differ.
	// Two children: the first journaled pick names a child the program
	// never spawns, so the forced merge fails instead of waiting for it.
	for _, children := range []int{6, 2} {
		testutil.WithTimeout(t, 30*time.Second, func() {
			if _, err := Resume(dir, testOptions(), changed(children)); !errors.Is(err, ErrDiverged) {
				t.Fatalf("resume with a changed %d-child program = %v, want ErrDiverged", children, err)
			}
		})
	}
}

// corruptionAt flips one byte of the WAL at offset off.
func corruptionAt(t *testing.T, dir string, off int64) {
	t.Helper()
	path := filepath.Join(dir, walName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(buf))
	}
	buf[off] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestErrorClassification covers the torn-vs-corrupt taxonomy: an
// incomplete tail is recoverable (ErrTornTail), everything else is
// ErrCorrupt or ErrNoRun, and the sentinels never alias each other.
func TestErrorClassification(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		if err := Run(dir, testOptions(), anyWorkload, anyData()...); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	walPath := func(dir string) string { return filepath.Join(dir, walName) }

	t.Run("missing journal is ErrNoRun", func(t *testing.T) {
		err := Verify(t.TempDir())
		if !errors.Is(err, ErrNoRun) {
			t.Fatalf("Verify(empty dir) = %v, want ErrNoRun", err)
		}
		if _, err := Open(t.TempDir(), testOptions()); !errors.Is(err, ErrNoRun) {
			t.Fatalf("Open(empty dir) = %v, want ErrNoRun", err)
		}
	})

	t.Run("short magic is ErrNoRun", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(walPath(dir), walMagic[:3], 0o644)
		if err := Verify(dir); !errors.Is(err, ErrNoRun) {
			t.Fatalf("Verify = %v, want ErrNoRun", err)
		}
	})

	t.Run("bad magic is ErrCorrupt", func(t *testing.T) {
		dir := build(t)
		corruptionAt(t, dir, 0)
		if err := Verify(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Verify = %v, want ErrCorrupt", err)
		}
		if _, err := Open(dir, testOptions()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})

	t.Run("truncated tail is ErrTornTail and recoverable", func(t *testing.T) {
		dir := build(t)
		path := walPath(dir)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-3); err != nil {
			t.Fatal(err)
		}
		verr := Verify(dir)
		if !errors.Is(verr, ErrTornTail) {
			t.Fatalf("Verify(truncated) = %v, want ErrTornTail", verr)
		}
		if errors.Is(verr, ErrCorrupt) {
			t.Fatal("ErrTornTail must not classify as ErrCorrupt")
		}
		j, err := Open(dir, testOptions())
		if err != nil {
			t.Fatalf("Open(truncated) = %v, want recovery", err)
		}
		if !j.Recovery().TornTail {
			t.Error("recovery did not flag the torn tail")
		}
		if j.Recovery().Done {
			t.Error("truncated done record still reported as Done")
		}
		j.Close()
		if err := Verify(dir); err != nil {
			t.Fatalf("Verify after recovery = %v, want clean", err)
		}
	})

	t.Run("mid-file bit flip is ErrCorrupt", func(t *testing.T) {
		dir := build(t)
		corruptionAt(t, dir, int64(len(walMagic))+12) // inside the inputs record
		verr := Verify(dir)
		if !errors.Is(verr, ErrCorrupt) {
			t.Fatalf("Verify(bit flip) = %v, want ErrCorrupt", verr)
		}
		if errors.Is(verr, ErrTornTail) {
			t.Fatal("ErrCorrupt must not classify as ErrTornTail")
		}
		if _, err := Open(dir, testOptions()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open(bit flip) = %v, want ErrCorrupt", err)
		}
	})

	t.Run("typed errors carry their sentinels", func(t *testing.T) {
		var c error = CorruptError{File: "wal.log", Offset: 9, Reason: "x"}
		var torn error = TornTailError{File: "wal.log", Offset: 9}
		var d error = DivergedError{Detail: "x"}
		if !errors.Is(c, ErrCorrupt) || errors.Is(c, ErrTornTail) || errors.Is(c, ErrNoRun) {
			t.Error("CorruptError misclassified")
		}
		if !errors.Is(torn, ErrTornTail) || errors.Is(torn, ErrCorrupt) {
			t.Error("TornTailError misclassified")
		}
		if !errors.Is(d, ErrDiverged) || errors.Is(d, ErrCorrupt) {
			t.Error("DivergedError misclassified")
		}
	})
}

// TestRouteJournal: RecordRoute/NextRoute round-trip through a crash —
// the coordinator half of deterministic failover resume.
func TestRouteJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.writeInputs(anyData()); err != nil {
		t.Fatal(err)
	}
	j.RecordRoute("r/0", 2)
	j.RecordRoute("r/1", 0)
	j.RecordRoute("r/0", 2) // duplicate: must not append a record
	j.RecordRoute("r/0", 1) // failover overrides the slot
	if got := j.Stats().Get("route_recorded"); got != 3 {
		t.Errorf("route_recorded = %d, want 3", got)
	}
	j.Close()

	opts := testOptions()
	opts.Stats = stats.NewCounters()
	j2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n, ok := j2.NextRoute("r/0"); !ok || n != 1 {
		t.Errorf("NextRoute(r/0) = %d,%v, want 1,true (last write wins)", n, ok)
	}
	if n, ok := j2.NextRoute("r/1"); !ok || n != 0 {
		t.Errorf("NextRoute(r/1) = %d,%v, want 0,true", n, ok)
	}
	if _, ok := j2.NextRoute("r/9"); ok {
		t.Error("NextRoute invented a route for an unknown slot")
	}
	if got := opts.Stats.Get("route_replayed"); got != 2 {
		t.Errorf("route_replayed = %d, want 2", got)
	}
}
