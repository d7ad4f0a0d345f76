// Package obs is the observability layer of the Spawn & Merge runtime: a
// hierarchical span tracer with deterministic span identity, per-kind
// latency histograms, and exporters (expvar and Prometheus text) for the
// counters the runtime already keeps.
//
// The design leans on the paper's own argument (Section I): determinism
// "has the potential to significantly simplify debugging". A span's
// identity — which track it belongs to, its position on that track, its
// kind, name, parent and operation count — derives only from the task
// tree's stable creation paths and per-task program order, never from
// wall-clock time or goroutine scheduling. Two runs of a deterministic
// program therefore produce bit-identical span trees, on any GOMAXPROCS;
// only the recorded durations differ. Diffing a failing run's tree
// against a good one localizes the divergence to the exact merge (or RPC,
// or WAL record) where behavior forked.
//
// Tracks keep ordering deterministic without global sequencing: every
// span lives on a track whose spans are emitted by a single logical
// writer in program order (a task's own goroutine, a journal pick path, a
// single abort target). Cross-track interleaving is scheduling-dependent
// and deliberately not part of span identity.
//
// Tracing is strictly pay-for-use: the runtime guards every hook with a
// nil-tracer check, so a disabled tracer adds zero allocations and no
// atomic traffic to the spawn/merge hot path (BenchmarkSpawnMergeTraceOff
// pins this).
package obs

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Kind classifies a span.
type Kind uint8

// Span kinds, grouped by the subsystem that emits them.
const (
	KindInvalid Kind = iota

	// Task runtime.
	KindSpawn     // parent copies data and starts a child
	KindMerge     // parent folds one quiescent child in (mergeChild)
	KindSync      // child blocks in Sync until the parent merges it
	KindAbort     // a task is marked externally aborted
	KindTransform // per-structure compact+transform inside a merge
	KindApply     // per-structure apply+commit inside a merge

	// Distributed runtime.
	KindSend     // dist RPC send (spawn or sync reply)
	KindRecv     // dist RPC recv (sync or done)
	KindFailover // proxy re-targets a dead node's task

	// Journal.
	KindAppend     // WAL record made durable
	KindCheckpoint // checkpoint written or verified
	KindReplay     // durable record verified against a resumed run

	// Elastic membership.
	KindMember    // membership transition (join, drain, leave)
	KindRebalance // in-flight task moved off a draining node

	// Collaborative front door.
	KindSession // session lifecycle (hello, resume, evict)

	// Bounded-memory compaction.
	KindCompact // history trim, WAL segment rotation, chunk reclaim
)

var kindNames = [...]string{
	KindInvalid:    "invalid",
	KindSpawn:      "spawn",
	KindMerge:      "merge",
	KindSync:       "sync",
	KindAbort:      "abort",
	KindTransform:  "transform",
	KindApply:      "apply",
	KindSend:       "rpc.send",
	KindRecv:       "rpc.recv",
	KindFailover:   "failover",
	KindAppend:     "wal.append",
	KindCheckpoint: "checkpoint",
	KindReplay:     "replay",
	KindMember:     "member",
	KindRebalance:  "rebalance",
	KindSession:    "session",
	KindCompact:    "compact",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds lists every real span kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, len(kindNames)-1)
	for k := KindSpawn; int(k) < len(kindNames); k++ {
		out = append(out, k)
	}
	return out
}

// Span is one recorded event. Every field except Dur is deterministic for
// a deterministic program; Dur is the wall-clock measurement and is
// excluded from fingerprints and diffs.
type Span struct {
	Seq    int           `json:"seq"`              // position on the track
	Parent int           `json:"parent"`           // Seq of the enclosing span on the same track; -1 for top level
	Kind   Kind          `json:"kind"`             // what happened
	Name   string        `json:"name"`             // deterministic detail (child path, structure position, outcome)
	Ops    int64         `json:"ops,omitempty"`    // operation / payload count
	Dur    time.Duration `json:"dur_ns,omitempty"` // wall-clock duration (not part of identity)
}

// Tracer collects spans onto tracks and aggregates per-kind latency
// histograms and counters. A nil *Tracer is the disabled state: the
// runtime checks for nil before touching any hook.
type Tracer struct {
	mu     sync.Mutex
	tracks map[string][]Span
	hists  map[Kind]*stats.Histogram
	counts *stats.Counters
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{
		tracks: make(map[string][]Span),
		hists:  make(map[Kind]*stats.Histogram),
		counts: stats.NewCounters(),
	}
}

// Counters returns the tracer's span counters: "span.<kind>" counts and
// "ops.<kind>" operation totals. For a deterministic program the whole
// set is identical across runs.
func (t *Tracer) Counters() *stats.Counters { return t.counts }

// Histogram returns the latency histogram for one span kind, creating it
// on first use.
func (t *Tracer) Histogram(k Kind) *stats.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.histLocked(k)
}

func (t *Tracer) histLocked(k Kind) *stats.Histogram {
	h := t.hists[k]
	if h == nil {
		h = stats.NewLatencyHistogram()
		t.hists[k] = h
	}
	return h
}

// Histograms snapshots the per-kind histograms recorded so far.
func (t *Tracer) Histograms() map[Kind]*stats.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Kind]*stats.Histogram, len(t.hists))
	for k, h := range t.hists {
		out[k] = h
	}
	return out
}

// Begin opens a span on track and returns its Seq, so nested spans can
// name it as their Parent and End can close it. The span's identity is
// fixed at Begin; End only fills measurements.
func (t *Tracer) Begin(track string, kind Kind, name string) int {
	t.mu.Lock()
	seq := len(t.tracks[track])
	t.tracks[track] = append(t.tracks[track], Span{Seq: seq, Parent: -1, Kind: kind, Name: name})
	t.mu.Unlock()
	return seq
}

// End closes the span opened by Begin on track. A non-empty name replaces
// the Begin name (for outcomes known only at completion — deterministic
// outcomes only; never embed measurements in the name). ops and the
// elapsed time since start are recorded, and the kind's histogram gets
// the latency sample.
func (t *Tracer) End(track string, seq int, name string, ops int64, start time.Time) {
	dur := time.Since(start)
	t.mu.Lock()
	spans := t.tracks[track]
	if seq < 0 || seq >= len(spans) {
		t.mu.Unlock()
		return
	}
	sp := &spans[seq]
	if name != "" {
		sp.Name = name
	}
	sp.Ops = ops
	sp.Dur = dur
	t.histLocked(sp.Kind).RecordDuration(dur)
	t.mu.Unlock()
	t.count(sp.Kind, ops)
}

// Emit records a complete span in one call: a child of parent (or top
// level with parent < 0) with a pre-measured duration.
func (t *Tracer) Emit(track string, kind Kind, name string, parent int, ops int64, dur time.Duration) int {
	t.mu.Lock()
	seq := len(t.tracks[track])
	if parent < 0 {
		parent = -1
	}
	t.tracks[track] = append(t.tracks[track], Span{Seq: seq, Parent: parent, Kind: kind, Name: name, Ops: ops, Dur: dur})
	t.histLocked(kind).RecordDuration(dur)
	t.mu.Unlock()
	t.count(kind, ops)
	return seq
}

func (t *Tracer) count(kind Kind, ops int64) {
	t.counts.Inc("span." + kind.String())
	if ops != 0 {
		t.counts.Add("ops."+kind.String(), ops)
	}
}

// SpanCount returns the total number of recorded spans.
func (t *Tracer) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.tracks {
		n += len(s)
	}
	return n
}
