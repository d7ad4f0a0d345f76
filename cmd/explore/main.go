// Explore is the schedule-exploration CLI: it drives a built-in scenario
// through the deterministic-simulation harness (internal/explore), which
// seizes every nondeterminism source — MergeAny/MergeAnyFromSet pick
// order, faultnet fault injection, journal crash points — behind one
// decision stream, and checks the paper's invariants on every schedule:
// bit-identical fingerprints for deterministic programs, MergeAny
// outcomes reproducible from their recorded pick order, bounded progress,
// and crash-resume equivalence.
//
//	go run ./cmd/explore -list
//	go run ./cmd/explore -scenario anyorder -strategy exhaustive
//	go run ./cmd/explore -scenario fanout -schedules 256 -procs 1,4,8
//	go run ./cmd/explore -scenario fanout -crash
//	go run ./cmd/explore -scenario compact -strategy exhaustive -schedules 2048
//	go run ./cmd/explore -scenario compact -crash -segment-bytes 256 -retain-ckpts 1
//	go run ./cmd/explore -scenario chaos -schedules 64 -seeds out/
//	go run ./cmd/explore -scenario collab -size 50 -schedules 4
//	go run ./cmd/explore -scenario churn -schedules 8 -kill
//	go run ./cmd/explore -scenario buggy -replay out/buggy-determinism-000.seed
//
// -size scales the sized scenarios (collab, load, mem). -kill runs every
// schedule in a journaled child process, SIGKILLed and resumed until it
// exits 0. The run prints its outcome census; a violation prints its
// (shrunk) decision trace and exits nonzero, and so does a run that lost
// every schedule. -seeds also persists the trace as a replayable file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/stats"
)

func main() {
	var (
		scenario  = flag.String("scenario", "anyorder", "built-in scenario to explore (see -list)")
		strategy  = flag.String("strategy", "random", "exploration strategy: random | exhaustive")
		schedules = flag.Int("schedules", 64, "schedule budget per GOMAXPROCS value")
		seed      = flag.Int64("seed", 1, "random-walk seed")
		maxDec    = flag.Int("max-decisions", 4096, "per-schedule decision budget")
		stall     = flag.Duration("stall", 10*time.Second, "bounded-progress watchdog window")
		procs     = flag.String("procs", "", "comma-separated GOMAXPROCS sweep (e.g. 1,4,8)")
		shrink    = flag.Bool("shrink", true, "delta-debug failing schedules to minimal traces")
		seeds     = flag.String("seeds", "", "directory to persist failing seeds into")
		replay    = flag.String("replay", "", "replay a persisted seed file instead of exploring")
		crash     = flag.Bool("crash", false, "sweep injected crash points over every schedule")
		points    = flag.Int("crash-points", 3, "crash boundaries per schedule with -crash")
		segBytes  = flag.Int64("segment-bytes", 0, "WAL rotation threshold for -crash journals (0 = one unbounded segment)")
		retain    = flag.Int("retain-ckpts", 0, "prune -crash journal checkpoints to the newest N (0 = keep all)")
		size      = flag.Int("size", 0, "load of the sized scenarios: collab and load edits per client, mem waves/16 (0 = small default)")
		kill      = flag.Bool("kill", false, "re-run every clean schedule in a journaled child process, SIGKILLed and resumed until it finishes")
		killChild = flag.String("kill-child", "", "internal: run one -kill child in this directory")
		failFast  = flag.Bool("fail-fast", false, "stop at the first violation")
		list      = flag.Bool("list", false, "list built-in scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, sc := range explore.Builtins() {
			kind := "MergeAny"
			if sc.Deterministic {
				kind = "deterministic"
			}
			fmt.Printf("  %-12s %s\n", sc.Name, kind)
		}
		return
	}

	sc, ok := explore.BuiltinScenario(*scenario)
	if !ok {
		fmt.Fprintf(os.Stderr, "explore: unknown scenario %q (try -list)\n", *scenario)
		os.Exit(2)
	}

	counters := stats.NewCounters()
	opts := explore.Options{
		Schedules:    *schedules,
		Seed:         *seed,
		Size:         *size,
		MaxDecisions: *maxDec,
		StallTimeout: *stall,
		Shrink:       *shrink,
		SeedDir:      *seeds,
		FailFast:     *failFast,
		Stats:        counters,
	}
	switch *strategy {
	case "random":
		opts.Strategy = explore.RandomWalk
	case "exhaustive":
		opts.Strategy = explore.Exhaustive
	default:
		fmt.Fprintf(os.Stderr, "explore: unknown strategy %q (random | exhaustive)\n", *strategy)
		os.Exit(2)
	}
	if *procs != "" {
		for _, p := range strings.Split(*procs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "explore: bad -procs entry %q\n", p)
				os.Exit(2)
			}
			opts.Procs = append(opts.Procs, v)
		}
	}
	opts.Crash = &explore.CrashCheck{
		Encode:            dist.EncodeSnapshot,
		Decode:            dist.DecodeSnapshot,
		Points:            *points,
		SegmentBytes:      *segBytes,
		RetainCheckpoints: *retain,
	}
	switch {
	case *killChild != "":
		runKillChild(sc, *killChild, opts)
		return
	case *kill:
		opts.Crash.Kill = killParent(rand.New(rand.NewSource(*seed)), counters)
	case !*crash:
		opts.Crash = nil
	}

	if *replay != "" {
		v, err := explore.ReplaySeed(*replay, sc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(2)
		}
		if v == nil {
			fmt.Printf("seed %s no longer fails on %s\n", *replay, sc.Name)
			return
		}
		fmt.Printf("seed reproduces: %v\n", v)
		printViolation(v)
		os.Exit(1)
	}

	start := time.Now()
	res, err := explore.Run(sc, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("%s (%s strategy, %s)\n", res, opts.Strategy, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  counters: %s\n", counters)
	fmt.Printf("  outcomes: %s\n", strings.Join(res.SortedOutcomes(), " "))
	for _, v := range res.Violations {
		fmt.Println()
		fmt.Println(v)
		printViolation(v)
	}
	if !res.Ok() {
		os.Exit(1)
	}
	if *kill && counters.Get("kill_resume") == 0 {
		fmt.Println("no child was ever resumed: every kill landed before the journal or after the run")
		os.Exit(1)
	}
}

// killParent is the parent half of -kill: it writes the schedule's trace
// beside a journal directory and re-execs this binary as a -kill-child on
// it, SIGKILLing each child after a random delay, until one exits 0 and
// prints the outcome; that child counts as a resume when it finished a
// journal an earlier one began. Every fourth child runs unkilled. A child
// that exits nonzero, rather than dying of the kill, fails the check.
func killParent(rng *rand.Rand, counters *stats.Counters) func(explore.Trace) (uint64, error) {
	return func(tr explore.Trace) (uint64, error) {
		self, err := os.Executable()
		if err != nil {
			return 0, err
		}
		base, err := os.MkdirTemp("", "explore-kill-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(base)
		if err := explore.WriteSeedFile(filepath.Join(base, "schedule.seed"), "kill", "kill", tr); err != nil {
			return 0, err
		}
		args := append(os.Args[1:len(os.Args):len(os.Args)], "-kill-child", base)
		for attempt := 0; attempt < 200; attempt++ {
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Start(); err != nil {
				return 0, err
			}
			killed := attempt%4 != 3
			if killed {
				time.Sleep(time.Duration(5+rng.Intn(40)) * time.Millisecond)
				_ = cmd.Process.Kill() // it may have exited already; Wait says how it ended
				counters.Inc("kill_sigkill")
			}
			if err := cmd.Wait(); err == nil {
				var fp uint64
				var resumed bool
				_, err := fmt.Sscanf(out.String(), "%x %t", &fp, &resumed)
				if resumed {
					counters.Inc("kill_resume")
				}
				return fp, err
			} else if !killed || cmd.ProcessState.Exited() {
				// It ended on its own, not by the kill: that is its failure.
				return 0, fmt.Errorf("child failed: %w", err)
			}
		}
		return 0, fmt.Errorf("child never finished in 200 attempts")
	}
}

// runKillChild is the child half of -kill: run the schedule in base's
// seed file journaled in base/journal, resuming what a killed child left
// and pausing on every journal write so the parent's kill lands mid-run,
// and print the outcome and whether it resumed.
func runKillChild(sc explore.Scenario, base string, opts explore.Options) {
	seed, err := explore.ReadSeedFile(filepath.Join(base, "schedule.seed"))
	if err == nil {
		var fp uint64
		var resumed bool
		if fp, resumed, err = explore.RunJournaled(sc, seed.Trace, filepath.Join(base, "journal"), opts); err == nil {
			fmt.Printf("%016x %t\n", fp, resumed)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "explore: kill child: %v\n", err)
	os.Exit(1)
}

func printViolation(v *explore.Violation) {
	if len(v.Trace) > 0 {
		fmt.Printf("  minimal decision trace:\n")
		for _, line := range strings.Split(strings.TrimRight(v.Trace.String(), "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	for _, line := range v.SpanDiff {
		fmt.Printf("  span diff: %s\n", line)
	}
	if v.SeedFile != "" {
		fmt.Printf("  seed file: %s\n", v.SeedFile)
	}
}
