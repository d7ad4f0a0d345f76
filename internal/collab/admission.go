package collab

import (
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Admission configures the front door's load-shedding gates. The zero
// value admits everything (no session cap, no rate limit) with default
// replay-window and idle-eviction bounds.
//
// All gates shed with explicit BUSY protocol replies carrying a
// retry-after hint, instead of letting the accept queue collapse: a shed
// client backs off and retries, an admitted client is never silently
// dropped.
type Admission struct {
	// MaxSessions caps live sessions (attached + detached-but-resumable).
	// A HELLO past the cap is shed with BUSY. Zero means unlimited.
	MaxSessions int

	// RateBurst is the per-session token-bucket capacity; RateEvery is how
	// many logical ticks (server-wide processed requests) refill one
	// token. RateBurst zero disables rate limiting; RateEvery zero means 1.
	RateBurst int
	RateEvery int

	// WindowSize bounds the per-session replay window of acked replies
	// (default 8). A reconnecting client may re-send any request within
	// the window and get the recorded reply without re-execution; past the
	// window the session is no longer exactly-once and resume is refused.
	WindowSize int

	// IdleTicks is how many logical ticks a detached session survives
	// before eviction (default ~1M). IdleJitter adds a seeded per-session
	// offset in [0, IdleJitter) so evictions spread deterministically.
	// Logical time only advances with traffic, so an idle server never
	// evicts — eviction is a pure function of request ordering and seed.
	IdleTicks  uint64
	IdleJitter uint64

	// RetryAfter is the backoff hint advertised in BUSY replies
	// (default 2ms).
	RetryAfter time.Duration
}

// retryMillis renders the advertised retry-after hint.
func (a Admission) retryMillis() int64 {
	d := a.RetryAfter
	if d <= 0 {
		d = 2 * time.Millisecond
	}
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Options configures the session front door (ShardedOptions.Front).
type Options struct {
	// Admission sets the load-shedding gates.
	Admission Admission
	// Seed drives the deterministic eviction jitter.
	Seed int64
	// Counters receives the front door's accounting (admitted, shed,
	// resumed, replayed, evicted, busy_rate, busy_route,
	// readonly_refused, ...). A fresh set is created when nil.
	Counters *stats.Counters
	// Tracer, when non-nil, receives session spans (hello/resume/evict)
	// and the task runtime's spawn/clone/merge spans.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Counters == nil {
		o.Counters = stats.NewCounters()
	}
	return o
}
