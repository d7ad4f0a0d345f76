package journal

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/mergeable"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/testutil"
)

// journaledScenario runs workload journaled in a fresh directory and
// returns the final fingerprint.
func journaledScenario(t *testing.T, dir string, mk func() []mergeable.Mergeable, fn task.Func) (uint64, *stats.Counters) {
	t.Helper()
	opts := testOptions()
	opts.Stats = stats.NewCounters()
	data := mk()
	if err := Run(dir, opts, fn, data...); err != nil {
		t.Fatal(err)
	}
	return fingerprintAll(data), opts.Stats
}

// sweepStride selects the crash sweep's boundary stride: every byte by
// default (the acceptance bar), thinned when each run costs 10-20x under
// the race detector or the suite asked for -short.
func sweepStride() int64 {
	if testing.Short() || raceEnabled {
		return 17
	}
	return 1
}

// crashSweep injects a crash at byte boundary k of every physical journal
// write for k = 1..total-1 (stride apart), then recovers and checks the
// final fingerprint against want. Killing at EVERY boundary exercises the
// torn tail of each record and each checkpoint tmp file.
func crashSweep(t *testing.T, want uint64, total int64, stride int64, mk func() []mergeable.Mergeable, fn task.Func) {
	t.Helper()
	crashSweepOpts(t, want, total, stride, testOptions, mk, fn)
}

// crashSweepOpts is crashSweep with the journal options under the
// harness's control — the segment sweep passes options with a tiny
// SegmentBytes so the budgets land inside rotations too.
func crashSweepOpts(t *testing.T, want uint64, total int64, stride int64, mkOpts func() Options, mk func() []mergeable.Mergeable, fn task.Func) {
	t.Helper()
	base := t.TempDir()
	swept, fresh := 0, 0
	for k := int64(1); k < total; k += stride {
		dir := filepath.Join(base, fmt.Sprintf("k%06d", k))
		cw := NewCrashWriter(k)
		opts := mkOpts()
		opts.WrapWriter = cw.Wrap
		data := mk()
		err := Run(dir, opts, fn, data...)
		if err == nil {
			t.Fatalf("k=%d: run with a %d-byte crash budget did not report the crash", k, k)
		}
		if !cw.Crashed() {
			t.Fatalf("k=%d: crash writer never fired", k)
		}

		out, err := Resume(dir, mkOpts(), fn)
		var got uint64
		switch {
		case err == nil:
			got = fingerprintAll(out)
		case errors.Is(err, ErrNoRun):
			// Crash landed before the inputs were durable: nothing to
			// resume, the caller starts over.
			freshDir := filepath.Join(base, fmt.Sprintf("k%06d-fresh", k))
			data := mk()
			if err := Run(freshDir, mkOpts(), fn, data...); err != nil {
				t.Fatalf("k=%d: fresh run after ErrNoRun: %v", k, err)
			}
			got = fingerprintAll(data)
			fresh++
		default:
			t.Fatalf("k=%d: resume failed: %v", k, err)
		}
		if got != want {
			t.Fatalf("k=%d: recovered fingerprint %016x, want %016x", k, got, want)
		}
		swept++
	}
	if swept == 0 {
		t.Fatal("sweep covered no boundaries")
	}
	t.Logf("swept %d crash boundaries (%d pre-durable, stride %d, %d bytes total)", swept, fresh, stride, total)
}

// TestCrashSweepMergeAny is the acceptance scenario: a run with 9 MergeAny
// picks and 3 checkpoints, killed at every injected write boundary and
// resumed, must land on the uninterrupted fingerprint — at GOMAXPROCS 1
// and 4.
func TestCrashSweepMergeAny(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			want, counters := journaledScenario(t, t.TempDir(), anyData, anyWorkload)
			if got := counters.Get("pick_recorded"); got < 8 {
				t.Fatalf("reference run recorded %d picks, acceptance needs >= 8", got)
			}
			if got := counters.Get("checkpoint_written"); got < 3 {
				t.Fatalf("reference run wrote %d checkpoints, acceptance needs >= 3", got)
			}
			total := counters.Get("bytes_written")
			crashSweep(t, want, total, sweepStride(), anyData, anyWorkload)
		})
	}
}

// TestCrashSweepMergeAllExact: the fully deterministic workload has no
// picks to journal — recovery is pure re-execution from the durable
// inputs, checkpoint-verified, and must reproduce the exact state.
func TestCrashSweepMergeAllExact(t *testing.T) {
	want, counters := journaledScenario(t, t.TempDir(), allData, allWorkload)
	crashSweep(t, want, counters.Get("bytes_written"), sweepStride(), allData, allWorkload)
}

// TestResumeOfResume: a resume that itself crashes is resumable — the
// journal keeps extending across generations of processes.
func TestResumeOfResume(t *testing.T) {
	refData := anyData()
	if err := task.Run(anyWorkload, refData...); err != nil {
		t.Fatal(err)
	}
	want := fingerprintAll(refData)

	dir := t.TempDir()
	// Generation 0: the original run crashes partway in.
	opts := testOptions()
	opts.WrapWriter = NewCrashWriter(600).Wrap
	if err := Run(dir, opts, anyWorkload, anyData()...); err == nil {
		t.Fatal("crashing run reported success")
	}
	// Generation 1: the resume crashes too (fresh budget, counted from
	// this process's first journal write).
	ropts := testOptions()
	ropts.WrapWriter = NewCrashWriter(120).Wrap
	if _, err := Resume(dir, ropts, anyWorkload); err == nil {
		t.Fatal("crashing resume reported success")
	}
	// Generation 2: a clean resume completes the run.
	out, err := Resume(dir, testOptions(), anyWorkload)
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	if got := fingerprintAll(out); got != want {
		t.Fatalf("fingerprint after two crashes %016x, want %016x", got, want)
	}
	// The sealed journal now replays deterministically.
	if _, err := Resume(dir, testOptions(), anyWorkload); err != nil {
		t.Fatalf("replay of sealed journal: %v", err)
	}
}

// TestJournaledRunDeterministicAcrossProcs: the journaled acceptance
// workload has one observable outcome regardless of core count — the
// paper's determinism claim, checked through the journal path.
func TestJournaledRunDeterministicAcrossProcs(t *testing.T) {
	base := t.TempDir()
	n := 0
	testutil.SameAcrossProcs(t, 3, []int{1, 4}, func() (uint64, error) {
		n++
		data := anyData()
		err := Run(filepath.Join(base, fmt.Sprintf("run%d", n)), testOptions(), anyWorkload, data...)
		return fingerprintAll(data), err
	})
}
