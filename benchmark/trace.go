package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval recorded at a layer boundary by the benchmark's
// own code: around a call into the program, or between the first byte of
// a request and the last byte of its reply on a wrapped connection.
// Spans of one client call share req. parent 0 with req 0 means the span
// could not be tied to a single caller.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the untraced run passes nil everywhere.
type recorder struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span id before the span's end is known, so children can
// name their parent while it is still open.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

func (r *recorder) add(id, parent uint64, name string, req uint64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// call records fn as a root span and returns its duration.
func (r *recorder) call(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if r != nil {
		id := r.id()
		r.add(id, 0, name, id, start, end)
	}
	return end.Sub(start)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"` // total minus the part its child spans cover
}

// selfTimes folds the spans into one row per name. A span's self time is
// its duration minus its direct children's; unattributed reports the
// share of non-root-layer spans that name no parent.
func (r *recorder) selfTimes(rootLayers map[string]bool) (rows []layerRow, unattributed float64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint64]int64, len(r.spans))
	var orphans, nested int
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
		if !rootLayers[s.Name] {
			nested++
			if s.Parent == 0 {
				orphans++
			}
		}
	}
	byName := make(map[string]*layerRow)
	for _, s := range r.spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			byName[s.Name] = row
		}
		d := s.End - s.Start
		row.Count++
		row.TotalMs += float64(d) / 1e6
		row.SelfMs += float64(d-children[s.ID]) / 1e6
	}
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalMs > rows[j].TotalMs })
	if nested > 0 {
		unattributed = float64(orphans) / float64(nested)
	}
	return rows, unattributed
}

// maxSpansWritten bounds trace.json; statistics always use every span.
const maxSpansWritten = 50000

// traceFile is what one traced workload contributes to trace.json.
type traceFile struct {
	Workload     string     `json:"workload"`
	TotalSpans   int        `json:"total_spans"`
	Truncated    bool       `json:"truncated"`
	Unattributed float64    `json:"unattributed_share"`
	SelfTimes    []layerRow `json:"self_times"`
	Spans        []span     `json:"spans"`
}

func (r *recorder) file(workload string, rootLayers map[string]bool) traceFile {
	rows, un := r.selfTimes(rootLayers)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := traceFile{Workload: workload, TotalSpans: len(r.spans), Unattributed: un, SelfTimes: rows, Spans: r.spans}
	if len(f.Spans) > maxSpansWritten {
		f.Spans, f.Truncated = f.Spans[:maxSpansWritten], true
	}
	return f
}

func printSelfTimes(w io.Writer, f traceFile) {
	fmt.Fprintf(w, "  self-time table (%d spans, %.1f%% unattributed)\n", f.TotalSpans, 100*f.Unattributed)
	fmt.Fprintf(w, "    %-28s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, row := range f.SelfTimes {
		fmt.Fprintf(w, "    %-28s %9d %12.2f %12.2f\n", row.Name, row.Count, row.TotalMs, row.SelfMs)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
