// Figure3 regenerates Figure 3 of the paper: simulation time against host
// workload l (SHA-1 iterations per message) for the four test setups —
// conventional non-deterministic/deterministic and Spawn & Merge
// non-deterministic/deterministic. It prints the measurement table, an
// ASCII rendering of the figure, and the quantitative claims of Section
// III (constant Spawn & Merge overhead, relative overhead shrinking with
// l, the det-vs-nondet gap, linear growth of both substrates).
//
// Repeats are interleaved: each repeat measures every l with every engine
// once, and the engine order rotates by one place from repeat to repeat,
// so a machine that drifts during the sweep slows all series alike
// instead of one. Table cells are medians over the repeats; the linear
// fits are made per repeat and reported as a median with min–max.
//
// The default sweep is scaled down so it finishes in a few minutes;
// -full runs the paper's exact parameters (l up to 10000, which takes on
// the order of an hour of CPU).
//
//	go run ./cmd/figure3 -repeats 10
//	go run ./cmd/figure3 -full -repeats 3
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
)

func main() {
	full := flag.Bool("full", false, "run the paper's full sweep (l = 0..10000 in steps of 1000)")
	repeats := flag.Int("repeats", 1, "interleaved runs per data point")
	hosts := flag.Int("hosts", 20, "simulated hosts (paper: 20)")
	messages := flag.Int("messages", 100, "initial messages (paper: 100)")
	ttl := flag.Int("ttl", 100, "hops per message (paper: 100)")
	quiet := flag.Bool("quiet", false, "suppress per-measurement progress")
	flag.Parse()

	workloads := []int{0, 250, 500, 1000, 1500, 2000}
	if *full {
		workloads = []int{0, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	}

	cfg := sweepConfig{
		base:      netsim.Config{Hosts: *hosts, Messages: *messages, TTL: *ttl, Seed: 1},
		workloads: workloads,
		repeats:   max(*repeats, 1),
	}
	if !*quiet {
		cfg.verbose = os.Stderr
		fmt.Fprintf(os.Stderr, "sweeping l over %v (%d hosts, %d messages, TTL %d, %d interleaved repeat(s))\n",
			workloads, *hosts, *messages, *ttl, cfg.repeats)
	}

	points, err := sweep(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== Figure 3: simulation time vs host workload (median of %d interleaved repeat(s)) ===\n", cfg.repeats)
	writeTable(os.Stdout, points)
	fmt.Println()
	writeASCIIChart(os.Stdout, points, 16)
	fmt.Println()
	fmt.Println("=== Section III claims ===")
	writeAnalysis(os.Stdout, analyze(points))
}

// engineOrder is the series order of Figure 3's legend.
var engineOrder = []string{
	"conventional-nondet",
	"conventional-det",
	"spawnmerge-nondet",
	"spawnmerge-det",
}

// sweepConfig parameterizes a Figure 3 regeneration.
type sweepConfig struct {
	base      netsim.Config // hosts/messages/TTL/seed; workload is overridden
	workloads []int         // the l axis (paper: 0..10000)
	repeats   int           // passes over the whole grid
	verbose   io.Writer     // progress sink, may be nil
}

// point is one x-position of Figure 3: every engine's wall time at
// workload l in milliseconds, one entry per repeat, in repeat order.
type point struct {
	workload int
	ms       map[string][]float64
}

// median is the value Figure 3 plots for engine at this l. Median rather
// than mean: shared machines inject multi-hundred-ms outliers.
func (p point) median(engine string) float64 { return stats.Summarize(p.ms[engine]).Median }

// sweep measures the grid repeat by repeat. Each repeat visits every
// workload and runs every engine there once, starting the engine order one
// place later than the previous repeat did.
func sweep(cfg sweepConfig) ([]point, error) {
	points := make([]point, len(cfg.workloads))
	for i, l := range cfg.workloads {
		points[i] = point{workload: l, ms: make(map[string][]float64)}
	}
	for r := 0; r < cfg.repeats; r++ {
		for i := range points {
			for k := range engineOrder {
				name := engineOrder[(k+r)%len(engineOrder)]
				c := cfg.base
				c.Workload = points[i].workload
				res, err := netsim.RunEngine(name, c)
				if err != nil {
					return nil, fmt.Errorf("figure3: %s at l=%d: %w", name, c.Workload, err)
				}
				ms := float64(res.Elapsed) / float64(time.Millisecond)
				points[i].ms[name] = append(points[i].ms[name], ms)
				if cfg.verbose != nil {
					fmt.Fprintf(cfg.verbose, "  repeat %-3d l=%-6d %-22s %8.1f ms\n", r+1, c.Workload, name, ms)
				}
			}
		}
	}
	return points, nil
}

// writeTable renders the sweep as the data table behind Figure 3: the
// median of each series at each l.
func writeTable(w io.Writer, points []point) {
	fmt.Fprintf(w, "%-10s", "l")
	for _, name := range engineOrder {
		fmt.Fprintf(w, "%24s", name)
	}
	fmt.Fprintln(w)
	for _, p := range points {
		fmt.Fprintf(w, "%-10d", p.workload)
		for _, name := range engineOrder {
			fmt.Fprintf(w, "%21.1fms", p.median(name))
		}
		fmt.Fprintln(w)
	}
}

// spread is a median together with the range it was taken over.
type spread struct{ median, min, max float64 }

func spreadOf(xs []float64) spread {
	s := stats.Summarize(xs)
	return spread{s.Median, s.Min, s.Max}
}

func (s spread) format(prec int) string {
	return fmt.Sprintf("%.*f (%.*f–%.*f)", prec, s.median, prec, s.min, prec, s.max)
}

// analysis holds the paper's Section III claims as one sweep measured
// them. The headline overhead is the deterministic pair, spawnmerge-det −
// conventional-det, the pair the frozen benchmark's netsim.overhead_ms
// reports; the non-deterministic pair is kept beside it.
type analysis struct {
	// overheadDet and overheadNondet are the l = 0 gaps between medians:
	// the paper's "constant overhead of about 400 milliseconds per run".
	overheadDet, overheadNondet float64
	// pct1000* is the relative overhead at l = 1000 (paper: 38 %), present
	// only when the sweep measured l = 1000; pctHigh* is the same at the
	// sweep's largest l (paper: ~7 % at l = 10000).
	has1000                   bool
	pct1000Det, pct1000Nondet float64
	highL                     int
	pctHighDet, pctHighNondet float64
	// detGapPercent is how much faster spawnmerge-det is than
	// spawnmerge-nondet, averaged over the sweep (paper: 1–4 %).
	detGapPercent float64
	// Linear fits of time against l, one per repeat, on the deterministic
	// pair: both slopes, and Spawn & Merge minus conventional for the
	// intercepts and the slopes. A constant overhead is an intercept gap
	// with a slope gap near zero.
	convSlope, smSlope, interceptGap, slopeGap spread
	convR2, smR2                               float64 // medians over the repeats
}

// analyze derives the Section III claims from sweep points.
func analyze(points []point) analysis {
	var a analysis
	if len(points) == 0 {
		return a
	}
	first, last := points[0], points[len(points)-1]
	a.overheadDet = first.median("spawnmerge-det") - first.median("conventional-det")
	a.overheadNondet = first.median("spawnmerge-nondet") - first.median("conventional-nondet")

	relative := func(p point) (det, nondet float64) {
		return stats.OverheadPercent(p.median("spawnmerge-det"), p.median("conventional-det")),
			stats.OverheadPercent(p.median("spawnmerge-nondet"), p.median("conventional-nondet"))
	}
	for _, p := range points {
		if p.workload == 1000 {
			a.has1000 = true
			a.pct1000Det, a.pct1000Nondet = relative(p)
		}
	}
	a.highL = last.workload
	a.pctHighDet, a.pctHighNondet = relative(last)

	var gapSum float64
	var gapN int
	for _, p := range points {
		nd, d := p.median("spawnmerge-nondet"), p.median("spawnmerge-det")
		if nd > 0 {
			gapSum += (nd - d) / nd * 100
			gapN++
		}
	}
	if gapN > 0 {
		a.detGapPercent = gapSum / float64(gapN)
	}

	xs := make([]float64, len(points))
	for i, p := range points {
		xs[i] = float64(p.workload)
	}
	var convSlopes, smSlopes, interceptGaps, slopeGaps, convR2s, smR2s []float64
	for r := range first.ms["spawnmerge-det"] {
		conv := make([]float64, len(points))
		sm := make([]float64, len(points))
		for i, p := range points {
			conv[i] = p.ms["conventional-det"][r]
			sm[i] = p.ms["spawnmerge-det"][r]
		}
		cf, sf := stats.FitLinear(xs, conv), stats.FitLinear(xs, sm)
		convSlopes = append(convSlopes, cf.Slope)
		smSlopes = append(smSlopes, sf.Slope)
		interceptGaps = append(interceptGaps, sf.Intercept-cf.Intercept)
		slopeGaps = append(slopeGaps, sf.Slope-cf.Slope)
		convR2s = append(convR2s, cf.R2)
		smR2s = append(smR2s, sf.R2)
	}
	a.convSlope, a.smSlope = spreadOf(convSlopes), spreadOf(smSlopes)
	a.interceptGap, a.slopeGap = spreadOf(interceptGaps), spreadOf(slopeGaps)
	a.convR2, a.smR2 = stats.Summarize(convR2s).Median, stats.Summarize(smR2s).Median
	return a
}

// writeAnalysis renders the analysis next to the paper's claims.
func writeAnalysis(w io.Writer, a analysis) {
	fmt.Fprintf(w, "constant Spawn&Merge overhead at l=0:  %.1f ms det pair, %.1f ms nondet pair   (paper: ~400 ms constant; absolute value is hardware/runtime specific)\n",
		a.overheadDet, a.overheadNondet)
	if a.has1000 {
		fmt.Fprintf(w, "relative overhead at l=1000:           %.1f %% det, %.1f %% nondet   (paper: ~38%%)\n",
			a.pct1000Det, a.pct1000Nondet)
	}
	fmt.Fprintf(w, "%-39s%.1f %% det, %.1f %% nondet   (paper: ~7%% at l=10000 — must be well below the l=1000 overhead)\n",
		fmt.Sprintf("relative overhead at l=%d:", a.highL), a.pctHighDet, a.pctHighNondet)
	fmt.Fprintf(w, "spawnmerge det faster than nondet by:  %.1f %%    (paper: 1–4%%)\n", a.detGapPercent)
	fmt.Fprintln(w, "linear fits per repeat, det pair, median (min–max):")
	fmt.Fprintf(w, "  conventional growth:  %s ms per hash iteration (R²=%.3f; paper: proportional)\n", a.convSlope.format(3), a.convR2)
	fmt.Fprintf(w, "  spawn&merge growth:   %s ms per hash iteration (R²=%.3f; paper: rises alongside)\n", a.smSlope.format(3), a.smR2)
	fmt.Fprintf(w, "  intercept gap:        %s ms (the fitted constant overhead)\n", a.interceptGap.format(1))
	fmt.Fprintf(w, "  slope gap:            %s ms per hash iteration (0 when the overhead is constant in l)\n", a.slopeGap.format(4))
}

// writeASCIIChart draws the four series the way Figure 3 plots them:
// median simulation time (y) against host workload (x).
func writeASCIIChart(w io.Writer, points []point, height int) {
	if len(points) == 0 || height < 4 {
		return
	}
	var maxMs float64
	for _, p := range points {
		for name := range p.ms {
			maxMs = max(maxMs, p.median(name))
		}
	}
	if maxMs == 0 {
		return
	}
	marks := map[string]byte{
		"conventional-nondet": 'c',
		"conventional-det":    'C',
		"spawnmerge-nondet":   's',
		"spawnmerge-det":      'S',
	}
	colWidth := 5
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(points)*colWidth))
	}
	for xi, p := range points {
		for _, name := range engineOrder {
			y := int((p.median(name) / maxMs) * float64(height-1))
			row := height - 1 - y
			col := xi*colWidth + colWidth/2
			if grid[row][col] == ' ' {
				grid[row][col] = marks[name]
			} else {
				grid[row][col] = '*' // overlapping series
			}
		}
	}
	fmt.Fprintf(w, "Simulation time vs host workload (y max = %.0f ms)\n", maxMs)
	for _, row := range grid {
		fmt.Fprintf(w, "|%s\n", string(row))
	}
	fmt.Fprintf(w, "+%s\n ", strings.Repeat("-", len(points)*colWidth))
	for _, p := range points {
		fmt.Fprintf(w, "%-*d", colWidth, p.workload)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  c=conventional-nondet  C=conventional-det  s=spawnmerge-nondet  S=spawnmerge-det  *=overlap")
}
