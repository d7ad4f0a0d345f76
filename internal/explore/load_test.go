package explore

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collab"
	"repro/internal/dist"
	"repro/internal/mergeable"
	"repro/internal/task"
)

// TestEveryScheduleLostIsNotOk: a run whose every schedule ends in a
// tolerated error checked no invariant, so it is not clean.
func TestEveryScheduleLostIsNotOk(t *testing.T) {
	sc := Scenario{
		Name:          "doomed",
		Deterministic: true,
		TolerateError: func(error) bool { return true },
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			return failed(errors.New("injected")), []mergeable.Mergeable{mergeable.NewCounter(0)}
		},
	}
	res, err := Run(sc, Options{Schedules: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 3 || res.Ok() || !strings.Contains(res.String(), "EVERY SCHEDULE LOST") {
		t.Errorf("Lost = %d, Ok = %v, %q; want 3 lost, not ok, and the summary saying so", res.Lost, res.Ok(), res)
	}
}

// TestSortedOutcomesRendering pins the outcome census cmd/explore prints:
// fingerprint×count, ascending by fingerprint.
func TestSortedOutcomesRendering(t *testing.T) {
	r := &Result{Outcomes: map[uint64]int{0xc5f2f3d793b78755: 8, 0x2a: 1}}
	if got, want := strings.Join(r.SortedOutcomes(), " "), "000000000000002a×1 c5f2f3d793b78755×8"; got != want {
		t.Errorf("SortedOutcomes = %q, want %q", got, want)
	}
}

// TestCollabScenarioClosedForm: a few chaos schedules of the collab
// scenario all finish on the closed form of 8 clients × 4 markers.
func TestCollabScenarioClosedForm(t *testing.T) {
	res, err := Run(Collab(), Options{Schedules: 3, Seed: 2, Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("collab: %v", res.Violations[0])
	}
	want := collab.CanonicalFingerprint(markerSet(4, 0, 1, 2, 3, 4, 5, 6, 7))
	if len(res.Outcomes) != 1 || res.Outcomes[want] != 3 {
		t.Errorf("outcomes %v, want %016x×3", res.SortedOutcomes(), want)
	}
}

// TestLoadScenarioKillAndShards: the all-default load schedule (one shard)
// reaches the closed form but leaves the other configurations untried, so
// the run is not clean; a forced schedule (four shards, the owner of
// doc000 killed and resumed after client 0's first edit, fabric faults
// decided — all default, so none) reaches the same outcome.
func TestLoadScenarioKillAndShards(t *testing.T) {
	res, err := Run(Load(), Options{Schedules: 1})
	if err != nil {
		t.Fatal(err)
	}
	untried := "load.faults=1 load.kill=1 load.shards=1 load.shards=2"
	if len(res.Violations) > 0 || len(res.Outcomes) != 1 || res.Ok() || strings.Join(res.Uncovered, " ") != untried {
		t.Fatalf("load baseline: %v; want one outcome, no violation and %s untried", res, untried)
	}
	forced := Trace{{Site: "load.shards", N: 3, Pick: 2}, {Site: "load.kill", N: 2, Pick: 1}, {Site: "load.faults", N: 2, Pick: 1}}
	if v, err := ReplayTrace(Load(), forced, Options{}); err != nil || v != nil {
		t.Fatalf("four shards with a kill: violation %v, err %v", v, err)
	}
}

// TestDecideEachCoversEveryCombination: covering decisions take the
// mixed-radix digits of the random walk's schedule index, whatever the
// biased decisions between them draw, so 3·2·2 schedules take each
// combination once and fewer leave an alternative untried.
func TestDecideEachCoversEveryCombination(t *testing.T) {
	sc := Scenario{
		Name: "cover",
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			a, b := env.DecideEach("a", 3), env.DecideEach("b", 2)
			env.Decide("noise", 5)
			c := env.DecideEach("c", 2)
			return func(_ *task.Ctx, data []mergeable.Mergeable) error {
				data[0].(*mergeable.Counter).Add(int64(a*4 + b*2 + c))
				return nil
			}, []mergeable.Mergeable{mergeable.NewCounter(0)}
		},
	}
	res, err := Run(sc, Options{Schedules: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || len(res.Outcomes) != 12 {
		t.Errorf("12 schedules: %v, %d outcomes; want clean with 12", res, len(res.Outcomes))
	}
	res, err = Run(sc, Options{Schedules: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() || strings.Join(res.Uncovered, " ") != "c=1" || !strings.Contains(res.String(), "NEVER TRIED c=1") {
		t.Errorf("6 schedules: %v; want c=1 untried and the run not clean", res)
	}
}

// TestMemScenarioBounds: journaled with rotation and pruning the mem
// scenario holds its bounds and survives the crash sweep; with one
// unbounded segment its journal outgrows the disk bound, and the
// scenario says so.
func TestMemScenarioBounds(t *testing.T) {
	cc := func(segment int64, retain int) *CrashCheck {
		return &CrashCheck{Encode: dist.EncodeSnapshot, Decode: dist.DecodeSnapshot, Points: 1,
			Dir: t.TempDir(), SegmentBytes: segment, RetainCheckpoints: retain}
	}
	res, err := Run(Mem(), Options{Schedules: 2, Size: 4, Crash: cc(4096, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("mem: %v", res.Violations[0])
	}
	res, err = Run(Mem(), Options{Schedules: 1, Size: 4, Crash: cc(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() || !strings.Contains(res.Violations[0].Error(), "journal") {
		t.Errorf("an unrotated journal passed the disk bound: %v", res)
	}
}

// TestKillCheck wires CrashCheck.Kill to an in-process stand-in for the
// child: RunJournaled starts the journal, a second call resumes the
// sealed one, and both must reach the live outcome. A Kill that reports
// another outcome is a crash-divergence violation.
func TestKillCheck(t *testing.T) {
	opts := Options{Schedules: 3, Crash: &CrashCheck{Encode: dist.EncodeSnapshot, Decode: dist.DecodeSnapshot}}
	resumes := 0
	opts.Crash.Kill = func(tr Trace) (uint64, error) {
		dir := filepath.Join(t.TempDir(), "journal")
		first, resumed, err := RunJournaled(Compact(), tr, dir, opts)
		if err != nil || resumed {
			return 0, fmt.Errorf("first run: resumed %v, err %v", resumed, err)
		}
		again, resumed, err := RunJournaled(Compact(), tr, dir, opts)
		if resumed {
			resumes++
		}
		if err == nil && again != first {
			err = errors.New("the resumed journal reached another outcome")
		}
		return again, err
	}
	res, err := Run(Compact(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || resumes != 3 {
		t.Fatalf("kill check: %v, %d resumes, want clean with 3", res, resumes)
	}
	opts.Crash.Kill = func(Trace) (uint64, error) { return 1, nil }
	if res, _ := Run(Compact(), opts); res.Ok() || res.Violations[0].Kind != KindCrash {
		t.Errorf("a kill check reaching another outcome passed: %v", res)
	}
}
