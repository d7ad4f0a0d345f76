package main

import (
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// pt builds a one-repeat point from Figure 3's four series.
func pt(l int, convND, convD, smND, smD float64) point {
	return point{workload: l, ms: map[string][]float64{
		"conventional-nondet": {convND},
		"conventional-det":    {convD},
		"spawnmerge-nondet":   {smND},
		"spawnmerge-det":      {smD},
	}}
}

// TestSweepShape runs a scaled-down sweep (small network, low l) and pins
// its measurement order: repeat-major, the engine order rotated by one
// place on each repeat.
func TestSweepShape(t *testing.T) {
	var progress strings.Builder
	points, err := sweep(sweepConfig{
		base:      netsim.Config{Hosts: 4, Messages: 8, TTL: 5, Seed: 3},
		workloads: []int{0, 40},
		repeats:   2,
		engines:   engineOrder,
		verbose:   &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		for _, name := range engineOrder {
			if n := len(p.ms[name]); n != 2 {
				t.Fatalf("%s at l=%d: %d runs, want 2", name, p.workload, n)
			}
		}
	}
	// A progress line reads "repeat R l=L ENGINE T ms".
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(progress.String()), "\n") {
		f := strings.Fields(line)
		order = append(order, strings.Join(f[1:4], " "))
	}
	want := []string{
		"1 l=0 conventional-nondet", "1 l=0 conventional-det", "1 l=0 spawnmerge-nondet", "1 l=0 spawnmerge-det",
		"1 l=40 conventional-nondet", "1 l=40 conventional-det", "1 l=40 spawnmerge-nondet", "1 l=40 spawnmerge-det",
		"2 l=0 conventional-det", "2 l=0 spawnmerge-nondet", "2 l=0 spawnmerge-det", "2 l=0 conventional-nondet",
		"2 l=40 conventional-det", "2 l=40 spawnmerge-nondet", "2 l=40 spawnmerge-det", "2 l=40 conventional-nondet",
	}
	if !slices.Equal(order, want) {
		t.Fatalf("measurement order:\n%s\nwant:\n%s", strings.Join(order, "\n"), strings.Join(want, "\n"))
	}
}

// TestAnalyzeAndRender pins the Section III numbers on a hand-made sweep.
// The constant overhead is the det pair's gap (390 ms), not the nondet
// pair's (1000 ms), and the relative overhead set beside the paper's 38 %
// is read at l = 1000 (38 %), not at the sweep's second point l = 250
// (100 %).
func TestAnalyzeAndRender(t *testing.T) {
	points := []point{
		pt(0, 10, 10, 1010, 400),
		pt(250, 400, 400, 1000, 800),
		pt(1000, 1500, 1500, 2100, 2070),
		pt(10000, 14000, 14000, 15000, 14980),
	}
	a := analyze(points)
	if a.overheadDet != 390 || a.overheadNondet != 1000 {
		t.Fatalf("l=0 overhead = %v ms det, %v ms nondet; want 390, 1000", a.overheadDet, a.overheadNondet)
	}
	if !a.has1000 || a.pct1000Det < 37.9 || a.pct1000Det > 38.1 {
		t.Fatalf("relative overhead at l=1000 = %v %% (measured %v), want 38", a.pct1000Det, a.has1000)
	}
	if a.highL != 10000 || a.pctHighDet > 8 {
		t.Fatalf("relative overhead at l=%d = %v %%, want ~7", a.highL, a.pctHighDet)
	}
	if a.detGapPercent <= 0 {
		t.Fatalf("det gap = %v, want positive", a.detGapPercent)
	}
	if a.convR2 < 0.99 || a.convSlope.median <= 0 || a.interceptGap.median <= 0 {
		t.Fatalf("fits: conventional slope %+v R² %v, intercept gap %+v", a.convSlope, a.convR2, a.interceptGap)
	}

	var sb strings.Builder
	writeTable(&sb, points)
	writeAnalysis(&sb, a)
	writeASCIIChart(&sb, points, 10)
	out := sb.String()
	for _, want := range []string{"conventional-nondet", "390.0 ms det pair", "l=1000:", "38.0 % det", "paper", "Simulation time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// TestFitsPerRepeat: every repeat is fitted on its own, and the slopes and
// the intercept gap are reported as a median with min–max.
func TestFitsPerRepeat(t *testing.T) {
	// Three repeats: conventional grows 1, 2 and 3 ms per iteration, Spawn
	// & Merge the same plus 100, 300 and 200 ms.
	at := func(l float64) point {
		return point{workload: int(l), ms: map[string][]float64{
			"conventional-det": {l, 2 * l, 3 * l},
			"spawnmerge-det":   {l + 100, 2*l + 300, 3*l + 200},
		}}
	}
	a := analyze([]point{at(0), at(1000), at(2000)})
	if a.convSlope != (spread{2, 1, 3}) || a.smSlope != (spread{2, 1, 3}) {
		t.Fatalf("slopes = %+v, %+v; want median 2 over 1–3", a.convSlope, a.smSlope)
	}
	if a.interceptGap != (spread{200, 100, 300}) {
		t.Fatalf("intercept gap = %+v, want median 200 over 100–300", a.interceptGap)
	}
	if a.slopeGap != (spread{}) {
		t.Fatalf("slope gap = %+v, want 0", a.slopeGap)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := analyze(nil)
	if a.overheadDet != 0 || a.has1000 {
		t.Fatalf("empty analysis = %+v", a)
	}
	writeAnalysis(io.Discard, a)
}

// TestSweepOverheadDirection is a live miniature of the paper's headline
// measurement: Spawn & Merge must carry a positive constant overhead at
// l=0, and execution time must grow with l for both substrates.
func TestSweepOverheadDirection(t *testing.T) {
	points, err := sweep(sweepConfig{
		base:      netsim.Config{Hosts: 4, Messages: 8, TTL: 8, Seed: 3},
		workloads: []int{0, 300},
		repeats:   2,
		engines:   engineOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a := analyze(points); a.overheadDet <= 0 {
		t.Errorf("expected a Spawn&Merge overhead at l=0: det pair %.2f ms", a.overheadDet)
	}
	p0, p1 := points[0], points[1]
	for _, name := range engineOrder {
		if p1.median(name) <= p0.median(name) {
			t.Errorf("%s: time should grow with l (%.2f -> %.2f ms)", name, p0.median(name), p1.median(name))
		}
	}
}
