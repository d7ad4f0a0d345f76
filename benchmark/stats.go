package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of timings. Percentiles use the nearest-rank rule on
// the sorted set, so every reported value is one that was measured.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct returns the q-quantile (0 < q <= 1) of an already sorted set; 0 for
// an empty one.
func (s samples) pct(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

// tailLadder are the percentiles a report may name.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999}

// beyond counts the samples ranked above the q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// supportedTail returns the highest ladder percentile that still has at
// least ten samples beyond it; ok is false when not even the median does.
func supportedTail(n int) (q float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if beyond(n, tailLadder[i]) >= 10 {
			return tailLadder[i], true
		}
	}
	return 0, false
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf returns the median of a few floats (mean of the middle two
// for an even count).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rateWindow is the stretch over which the spine workloads count
// throughput.
const rateWindow = 250 * time.Millisecond

// windowCounter counts one client's completed ops per rateWindow without
// allocating while it counts.
type windowCounter struct {
	start time.Time
	win   []int64
}

func newWindowCounter(start time.Time, span time.Duration) *windowCounter {
	return &windowCounter{start: start, win: make([]int64, int(span/rateWindow)+8)}
}

func (c *windowCounter) add(n int) {
	if i := int(time.Since(c.start) / rateWindow); i < len(c.win) {
		c.win[i] += int64(n)
	}
}

// windowRates sums the counters window by window and returns ops per
// second for every whole window inside span.
func windowRates(span time.Duration, counters ...*windowCounter) []float64 {
	rates := make([]float64, int(span/rateWindow))
	for i := range rates {
		for _, c := range counters {
			rates[i] += float64(c.win[i]) / rateWindow.Seconds()
		}
	}
	return rates
}

// cycleRates turns the completion times of back-to-back cycles of ops
// units each into one rate per cycle.
func cycleRates(start time.Time, done []time.Time, ops int64) []float64 {
	rates := make([]float64, len(done))
	for i, t := range done {
		rates[i] = ratio(float64(ops), t.Sub(start).Seconds())
		start = t
	}
	return rates
}
