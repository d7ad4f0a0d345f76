// Command benchmark is the repository's one ruler: six seeded workloads
// over the two journeys of ROADMAP aim 1 (the paper's Figure 3 run and
// one client edit through the collab spine), measured end to end with
// tracing off and layer by layer in a separate traced run. Later changes
// are judged with it and may not edit it, so it imports only the surface
// ROADMAP items 2 and 3 promise to keep; see README.md in this directory.
//
//	go run ./benchmark -seed 1              # every workload, untraced and then traced
//	go run ./benchmark -seed 1 -selfcheck   # the untraced set twice, compared to the bounds
//	bash benchmark/run.sh --workload fig3_l0 --seed 1 --seconds 15 --trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} as BENCHMARK.json describes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// spec names one metric of BENCHMARK.json.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, over its own unit of work: one simulation
// (fig3_*), one spawn → work → MergeAll cycle (merge_*), one client op
// (spine_*).
var endToEnd = []spec{
	{"lat_p50_us", "us", "lower", 0.15},
	{"lat_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.15},
	{"alloc_b_per_op", "B/op", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produces.
type report struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Degraded  []string         `json:"degraded,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
	Seconds   float64          `json:"wall_s"`
}

// runCtx carries one run's inputs to a workload.
type runCtx struct {
	seed    uint64
	budget  time.Duration // how long to measure
	rec     *recorder     // nil in the untraced run
	workdir string        // scratch space inside the checkout
	log     io.Writer     // the human-readable report
}

func (rc *runCtx) traced() bool { return rc.rec != nil }

// measurement is what an untraced run hands back; the five end-to-end
// metrics are computed from it in one place.
type measurement struct {
	lat        samples   // one per unit of work
	rates      []float64 // units of work (hops, merged ops, client ops) per second, one per stretch of the run
	allocBytes uint64    // TotalAlloc delta ...
	allocOps   int64     // ... over this many units
	attempted  int64
	failed     int64
	notes      []string
	degraded   []string
}

// instance is one set-up copy of a workload.
type instance interface {
	// measure runs untraced for rc.budget and verifies every output.
	measure(rc *runCtx) (*measurement, error)
	// layers runs traced for rc.budget and fills in per-layer metrics.
	layers(rc *runCtx, out *layerSet) error
	// close releases servers, connections and files.
	close()
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// tail is the percentile reported as lat_tail_us: fixed per workload
	// at the highest one its sample count supports with ten samples
	// beyond it, so the metric means the same thing on every run.
	tail  float64
	setup func(rc *runCtx) (instance, error)
}

var workloads = []workload{
	{"fig3_l0", "no host work: all time is spawn, copy, sync, merge and OT, the paper's constant overhead", 0.75, setupFig3(0)},
	{"fig3_l1000", "SHA-1 host work dominates: runtime optimisations are bypassed, task scheduling across cores shows", 0.50, setupFig3(1000)},
	{"merge_runs", "run-shaped histories: the batched run-length engine and log append/apply do the work", 0.90, setupMerge(false)},
	{"merge_scatter", "random-position edits: no runs, so list edits, apply and the pairwise transform dominate", 0.90, setupMerge(true)},
	{"spine_batch", "many tiny batched ops on two shards: framing, front, router, pipes and op log dominate", 0.99, setupSpine(spineBatch)},
	{"spine_single", "blocking ops by two clients on one 4 KiB document: per-op sync, OT conflicts, text copy and bytes", 0.95, setupSpine(spineSingle)},
}

func findWorkload(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, which keeps one slow start from moving it.
const setupRepeats = 3

// runWorkload does one run: set up, measure (or trace), verify, report.
func runWorkload(w workload, rc *runCtx) (*report, error) {
	began := time.Now()
	rep := &report{Workload: w.name, Traced: rc.traced(), Metrics: map[string]value{}}
	fmt.Fprintf(rc.log, "\n== %s (%s, seed %d, %.0f s) ==\n   %s\n", w.name, mode(rc.traced()), rc.seed, rc.budget.Seconds(), w.why)

	var inst instance
	var setups []float64
	repeats := setupRepeats
	if rc.traced() {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(rc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	if rc.traced() {
		out := newLayerSet()
		err := inst.layers(rc, out)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Attempted, rep.Failed = out.attempted, out.failed
		rep.Notes, rep.Degraded = out.notes, out.degraded
		rep.Metrics = out.metrics()
	} else {
		m, err := inst.measure(rc)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		sorted := m.lat.sorted()
		rep.Attempted, rep.Failed = m.attempted, m.failed
		rep.Notes, rep.Degraded = m.notes, m.degraded
		if beyond(len(sorted), w.tail) < 10 && w.tail > 0.5 {
			rep.Degraded = append(rep.Degraded, fmt.Sprintf("only %d samples: p%g has fewer than 10 beyond it", len(sorted), 100*w.tail))
		}
		// The median and every higher percentile this run's sample count
		// supports, with the count, next to the two that are gated.
		ladder := fmt.Sprintf("%d latency samples, lat_tail_us is p%g; supported percentiles:", len(sorted), 100*w.tail)
		for _, q := range tailLadder {
			if beyond(len(sorted), q) >= 10 {
				ladder += fmt.Sprintf(" p%g %.1f", 100*q, us(sorted.pct(q)))
			}
		}
		rep.Notes = append(rep.Notes, ladder+" us")
		rep.Metrics["lat_p50_us"] = value{us(sorted.pct(0.5)), "us"}
		rep.Metrics["lat_tail_us"] = value{us(sorted.pct(w.tail)), "us"}
		// The median over the run's stretches, not total over total: a
		// second in which the machine was busy elsewhere moves the latter.
		rep.Metrics["ops_per_s"] = value{medianOf(m.rates), "ops/s"}
		rep.Metrics["alloc_b_per_op"] = value{ratio(float64(m.allocBytes), float64(m.allocOps)), "B/op"}
		rep.Metrics["setup_s"] = value{medianOf(setups), "s"}
	}
	if runtime.GOMAXPROCS(0) == 1 {
		rep.Degraded = append(rep.Degraded, "GOMAXPROCS=1: tasks, clients and shards share one core")
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.Seconds = time.Since(began).Seconds()
	printReport(rc.log, rep)
	return rep, nil
}

func printReport(w io.Writer, rep *report) {
	specs := endToEnd
	if rep.Traced {
		specs = perLayer
	}
	for _, s := range specs {
		if v, ok := rep.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-32s %16.4f %s\n", s.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v, %.1f s wall\n", rep.Attempted, rep.Failed, rep.Correct, rep.Seconds)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, d := range rep.Degraded {
		fmt.Fprintf(w, "  *** DEGRADED, RESULTS NOT COMPARABLE: %s ***\n", d)
	}
}

// environment is printed and stored with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Transport  string `json:"transport"`
}

func currentEnvironment(seed uint64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
		Transport:  "memnet (in-process pipes: latency is processor time only, no network delay)",
	}
}

// gitCommit reads HEAD by hand: the driver's checkout is not a git
// repository and the benchmark starts no other process.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// results is the file the full set writes next to trace.json.
type results struct {
	Environment environment `json:"environment"`
	Reports     []*report   `json:"reports"`
}

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "seeds every generated input: payloads, op schedules, arrival times")
		name      = flag.String("workload", "", "run one workload and print its result as the last line (default: the whole set)")
		seconds   = flag.Float64("seconds", 15, "how long one run measures")
		trace     = flag.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 runs traced and reports per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice in alternating order and compare against the bounds")
		workdir   = flag.String("workdir", ".bench_build", "directory inside the checkout for op logs, results.json and trace.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fatal(fmt.Errorf("run from the root of the checkout: %w", err))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	env := currentEnvironment(*seed)
	fmt.Printf("environment: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\ntransport: %s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Seed, env.Transport)

	switch {
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rc := &runCtx{seed: *seed, budget: budget, workdir: *workdir, log: os.Stdout}
		if *trace != 0 {
			rc.rec = newRecorder()
		}
		rep, err := runWorkload(w, rc)
		if err != nil {
			fatal(err)
		}
		if rc.traced() {
			f := rc.rec.file(w.name, rootLayers)
			printSelfTimes(os.Stdout, f)
			if err := writeJSON(tracePath(*workdir, w.name), f); err != nil {
				fatal(err)
			}
		}
		if err := writeJSON(reportPath(*workdir, w.name, rc.traced()), rep); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !rep.Correct {
			os.Exit(1)
		}
	case *selfcheck:
		if err := runSelfcheck(*seed, *seconds, *workdir); err != nil {
			fatal(err)
		}
	default:
		if err := runSet(env, *seconds, *workdir); err != nil {
			fatal(err)
		}
	}
}

func tracePath(workdir, workload string) string {
	return filepath.Join(workdir, "trace-"+workload+".json")
}

func reportPath(workdir, workload string, traced bool) string {
	return filepath.Join(workdir, "report-"+workload+"-"+mode(traced)+".json")
}

func mode(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

// runChild runs one workload in a process of its own, exactly as the
// harness that judges later changes does, and returns the report it left
// behind. What a workload leaves on the heap (the spine ones, hundreds of
// megabytes) moved the next one's numbers by ten percent when the set
// shared a process.
func runChild(workdir, workload string, seed uint64, seconds float64, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := reportPath(workdir, workload, traced)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", map[bool]string{false: "0", true: "1"}[traced], "-workdir", workdir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // a run that failed verification exits non-zero but still reports
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, errors.Join(runErr, err))
	}
	rep := &report{}
	return rep, json.Unmarshal(raw, rep)
}

// tracedShare is how long the full set's traced runs measure, as a share
// of the untraced budget: per-layer numbers carry no bound and settle
// sooner.
const tracedShare = 2.0 / 3

// runSet runs every workload untraced and then traced and writes
// results.json and trace.json.
func runSet(env environment, seconds float64, workdir string) error {
	res := results{Environment: env}
	var traces []json.RawMessage
	bad := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			budget := seconds
			if traced {
				budget *= tracedShare
			}
			rep, err := runChild(workdir, w.name, env.Seed, budget, traced)
			if err != nil {
				return err
			}
			if !rep.Correct {
				bad++
			}
			res.Reports = append(res.Reports, rep)
			if traced {
				raw, err := os.ReadFile(tracePath(workdir, w.name))
				if err != nil {
					return err
				}
				traces = append(traces, raw)
			}
		}
	}
	if err := writeJSON(filepath.Join(workdir, "results.json"), res); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(workdir, "trace.json"), traces); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s\n", filepath.Join(workdir, "results.json"), filepath.Join(workdir, "trace.json"))
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed verification", bad)
	}
	return nil
}

// runSelfcheck runs the untraced set twice, the second time in reverse
// order, and holds the two against each metric's bound: the same code
// must agree with itself before it can judge a change.
func runSelfcheck(seed uint64, seconds float64, workdir string) error {
	sets := [2]map[string]*report{{}, {}}
	for pass := range sets {
		order := slices.Clone(workloads)
		if pass == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			rep, err := runChild(workdir, w.name, seed, seconds, false)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s failed verification", w.name)
			}
			sets[pass][w.name] = rep
		}
	}
	fmt.Printf("\n== selfcheck: second set against first ==\n%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	outside := 0
	for _, w := range workloads {
		for _, s := range endToEnd {
			a, b := sets[0][w.name].Metrics[s.Name].Value, sets[1][w.name].Metrics[s.Name].Value
			worse := ratio(b-a, a)
			if s.Better == "higher" {
				worse = ratio(a-b, a)
			}
			verdict := ""
			if worse > s.Bound {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, s.Name, a, b, 100*worse, 100*s.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", outside)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
