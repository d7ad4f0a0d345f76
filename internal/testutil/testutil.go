// Package testutil holds small helpers shared by the repository's test
// suites.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// WithTimeout fails the test if fn does not return within d — the guard
// used by every test that could in principle block forever. The select
// runs on the calling (test) goroutine, so the Fatal is legal; fn runs
// on a fresh goroutine and is abandoned on timeout.
func WithTimeout(t testing.TB, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out: blocked unexpectedly")
	}
}

// SameAcrossProcs runs f n times under each GOMAXPROCS value in procs
// (restoring the setting after) and fails t unless every run succeeds
// with one fingerprint, which it returns: the paper's "regardless of the
// number of cores" claim for a self-contained program.
func SameAcrossProcs(t testing.TB, n int, procs []int, f func() (uint64, error)) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want uint64
	for i, p := range procs {
		runtime.GOMAXPROCS(p)
		for run := 0; run < n; run++ {
			got, err := f()
			switch {
			case err != nil:
				t.Fatalf("GOMAXPROCS %d, run %d: %v", p, run, err)
			case i == 0 && run == 0:
				want = got
			case got != want:
				t.Fatalf("GOMAXPROCS %d, run %d: fingerprint %016x, first run %016x", p, run, got, want)
			}
		}
	}
	return want
}
