package explore

import "math/rand"

// Strategy selects how the explorer walks the schedule space.
type Strategy int

const (
	// RandomWalk answers every decision from a seeded random stream — a
	// different stream per schedule. It samples the schedule space
	// uniformly-ish and scales to arbitrarily deep programs.
	RandomWalk Strategy = iota
	// Exhaustive performs bounded-exhaustive depth-first search over the
	// decision tree: the first schedule takes every default, and each
	// recorded decision point spawns one branch per untried alternative
	// (prefix replayed, alternative forced, defaults beyond). Within the
	// schedule budget it enumerates every reachable combination of
	// MergeAny pick orders, fault-injection sites and crash points.
	Exhaustive
)

func (s Strategy) String() string {
	switch s {
	case RandomWalk:
		return "random"
	case Exhaustive:
		return "exhaustive"
	}
	return "unknown"
}

// strategyState generates one Source per schedule and learns from the
// executed traces.
type strategyState interface {
	// next returns the next schedule's decision source, or ok=false when
	// the strategy has exhausted its space.
	next(maxDecisions int) (src *Source, ok bool)
	// observe feeds back a schedule's executed source so the strategy can
	// expand its frontier.
	observe(src *Source)
}

// randomWalk derives one fresh seeded stream per schedule.
type randomWalk struct {
	seed int64
	n    int64
}

func (r *randomWalk) next(maxDecisions int) (*Source, bool) {
	r.n++
	mixed := r.seed ^ int64(uint64(r.n)*0x9E3779B97F4A7C15)
	src := newSource(nil, rand.New(rand.NewSource(mixed)), maxDecisions)
	src.each = r.n
	return src, true
}

func (r *randomWalk) observe(*Source) {}

// exhaustive is the DFS frontier: a stack of forced prefixes. Popping the
// most recently pushed prefix first makes the walk depth-first, so long
// schedules are fully resolved before the search backtracks.
type exhaustive struct {
	stack []Trace
}

func newExhaustive() *exhaustive { return &exhaustive{stack: []Trace{nil}} }

func (e *exhaustive) next(maxDecisions int) (*Source, bool) {
	if len(e.stack) == 0 {
		return nil, false
	}
	p := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return newSource(p, nil, maxDecisions), true
}

func (e *exhaustive) observe(src *Source) {
	trace, over := src.snapshot()
	if over {
		// The schedule hit the decision budget; its tail is truncated, so
		// expanding it would enumerate a lie. The prefix alternatives were
		// already pushed by the run that discovered them.
		return
	}
	for i := src.forcedLen; i < len(trace); i++ {
		d := trace[i]
		for pick := d.Pick + 1; pick < d.N; pick++ {
			alt := trace[:i].clone()
			alt = append(alt, Decision{Site: d.Site, N: d.N, Pick: pick})
			e.stack = append(e.stack, alt)
		}
	}
}

func newStrategyState(s Strategy, seed int64) strategyState {
	if s == Exhaustive {
		return newExhaustive()
	}
	return &randomWalk{seed: seed}
}
