package explore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
)

// Decision is one resolved nondeterminism point: at Site, one of N
// alternatives existed and Pick was taken. Alternative 0 is always the
// "default" — first candidate in creation order for merges, no fault for
// the chaos transport, earliest boundary for crash points — so the
// all-zero trace is the canonical baseline schedule.
type Decision struct {
	Site string
	N    int
	Pick int
}

func (d Decision) String() string { return fmt.Sprintf("%s %d/%d", d.Site, d.Pick, d.N) }

// Trace is the ordered decision record of one explored schedule. Replayed
// through a Source it reproduces the schedule; persisted with
// WriteSeedFile it becomes a shareable repro.
type Trace []Decision

func (t Trace) clone() Trace { return append(Trace(nil), t...) }

// String renders the trace one decision per line.
func (t Trace) String() string {
	var sb strings.Builder
	for i, d := range t {
		fmt.Fprintf(&sb, "%3d: %s\n", i, d.String())
	}
	return sb.String()
}

// Source is one schedule's decision stream. Every nondeterminism source
// the harness has seized — MergeAny picks, faultnet chaos, journal crash
// points, scenario-level choices — resolves its alternatives through
// Choose, so a schedule is fully described by the trace of answers.
//
// Forced decisions (a replayed trace or a DFS prefix) are consumed first,
// FIFO per site: keying the queues by site keeps replay correct even when
// decision points on different sites (different merging parents, different
// connections) interleave differently between runs — per-site order is
// what the runtime makes deterministic, global order is not guaranteed.
// Past the forced decisions, a random-walk source answers from its seeded
// stream; a bare source answers 0.
type Source struct {
	mu     sync.Mutex
	queues map[string][]int
	// forcedLen is the forced-prefix length — the DFS strategy only
	// branches on decisions recorded past it.
	forcedLen int
	rng       *rand.Rand
	trace     Trace
	// maxDecisions bounds the trace. Past the bound Choose stops
	// recording and answering (always 0) and stops pulsing the progress
	// counter, so a decision-driven livelock surfaces as a stall.
	maxDecisions int
	overBudget   bool
	// each holds the random walk's schedule index, whose mixed-radix
	// digits answer the covering decisions (Env.DecideEach) in turn;
	// covering records them for Result.Uncovered.
	each     int64
	covering Trace
	// progress is the stall watchdog's pulse: bumped by every decision
	// and by every blocking point of the merge protocol (via
	// Env.Yield).
	progress atomic.Int64
}

// newSource builds a schedule's stream: forced decisions first, then rng
// (nil means the all-default extension), capped at maxDecisions.
func newSource(forced Trace, rng *rand.Rand, maxDecisions int) *Source {
	s := &Source{
		queues:       make(map[string][]int, len(forced)),
		forcedLen:    len(forced),
		rng:          rng,
		maxDecisions: maxDecisions,
	}
	for _, d := range forced {
		s.queues[d.Site] = append(s.queues[d.Site], d.Pick)
	}
	return s
}

// Choose resolves one decision point with n alternatives and records it.
// Points with fewer than two alternatives are not decisions: they answer
// 0 without being recorded, so traces hold only real branch points. Safe
// for concurrent use from any goroutine.
func (s *Source) Choose(site string, n int) int { return s.choose(site, n, false) }

// choose is Choose; a covering decision takes the next digit of the
// schedule index where a random draw would go.
func (s *Source) choose(site string, n int, covering bool) int {
	s.progress.Add(1)
	if n <= 1 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.trace) >= s.maxDecisions {
		s.overBudget = true
		s.progress.Add(-1) // an over-budget loop must look like a stall
		return 0
	}
	pick := 0
	if q := s.queues[site]; len(q) > 0 {
		pick = q[0]
		s.queues[site] = q[1:]
		if pick < 0 || pick >= n {
			// The program drifted from the trace (different candidate
			// count at this site); fall back to the default alternative.
			pick = 0
		}
	} else if covering {
		pick = int(s.each % int64(n))
		s.each /= int64(n)
	} else if s.rng != nil {
		// Bias 3:1 toward the default alternative. Uniform picks make
		// nearly every chaos schedule inject faults at nearly every write,
		// which mostly kills runs outright; sparse faults explore the
		// interesting recovery paths (retries, failover, late merges).
		if s.rng.Intn(4) > 0 {
			pick = 0
		} else {
			pick = s.rng.Intn(n)
		}
	}
	s.trace = append(s.trace, Decision{Site: site, N: n, Pick: pick})
	if covering {
		s.covering = append(s.covering, Decision{Site: site, N: n, Pick: pick})
	}
	return pick
}

// pulse feeds the watchdog from runtime blocking points.
func (s *Source) pulse() { s.progress.Add(1) }

// snapshot returns the decisions taken so far and whether the budget was
// exhausted.
func (s *Source) snapshot() (Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace.clone(), s.overBudget
}
