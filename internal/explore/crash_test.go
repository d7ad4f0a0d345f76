package explore

import (
	"testing"

	"repro/internal/dist"
)

// TestCrashExploration sweeps injected crash points over every explored
// schedule of the checkpointing fixture: each journaled run is torn at a
// byte boundary, resumed, fingerprint-checked against the live schedule
// and its sealed journal re-verified.
func TestCrashExploration(t *testing.T) {
	st := newTestCounters()
	res, err := Run(Fanout(), Options{
		Schedules: 2,
		Crash: &CrashCheck{
			Encode: dist.EncodeSnapshot,
			Decode: dist.DecodeSnapshot,
			Points: 3,
			Dir:    t.TempDir(),
		},
		Stats: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	if st.Get("crash_check") == 0 {
		t.Error("crash check never ran")
	}
}

// TestCrashExplorationMergeAny covers the weaker non-deterministic
// contract: resume after a crash must succeed and verify for MergeAny
// schedules too, even though the resumed tail may pick differently.
func TestCrashExplorationMergeAny(t *testing.T) {
	res, err := Run(AnyOrder(), Options{
		Schedules: 4,
		Seed:      3,
		Crash: &CrashCheck{
			Encode: dist.EncodeSnapshot,
			Decode: dist.DecodeSnapshot,
			Points: 2,
			Dir:    t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
}

// TestCrashCheckMisconfiguration pins the configuration errors.
func TestCrashCheckMisconfiguration(t *testing.T) {
	if _, err := Run(Fanout(), Options{Crash: &CrashCheck{}}); err == nil {
		t.Error("CrashCheck without codecs was accepted")
	}
}
