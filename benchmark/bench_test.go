package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memnet"
)

// A percentile is reported only with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 0.50, true}, {39, 0.50, true}, {40, 0.75, true}, {100, 0.90, true},
		{999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	s := samples{5, 1, 4, 2, 3}.sorted()
	if s.pct(0.5) != 3 || s.pct(1) != 5 || s.pct(0.2) != 1 {
		t.Errorf("nearest-rank percentiles wrong: %v %v %v", s.pct(0.5), s.pct(1), s.pct(0.2))
	}
}

// fakeClock moves only when the loop sleeps or the flusher stalls.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d }

// An op that falls due while the flusher is stalled is timed from its due
// time, not from when it was finally sent.
func TestOpenLoopCountsWaitingBehindAStall(t *testing.T) {
	const msec = time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i+1) * msec
	}
	clk := &fakeClock{}
	var frames []int
	st, err := driveOpen(due, clk, func(int) {}, func(n int) error {
		frames = append(frames, n)
		clk.t += 5 * msec // every flush stalls for 5 ms
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Op 0 is sent on time at 1 ms and acked at 6 ms. Ops 1..5 fell due at
	// 2..6 ms behind that flush; they go out together at 6 ms and are acked
	// at 11 ms, so op 1 took 9 ms, not the 5 ms its own flush took.
	if fmt.Sprint(frames) != "[1 5 4]" {
		t.Errorf("frames = %v, want [1 5 4]", frames)
	}
	if st.lat[0] != 5*msec || st.lat[1] != 9*msec || st.wait[1] != 4*msec || st.lat[5] != 5*msec {
		t.Errorf("lat[0] %v lat[1] %v wait[1] %v lat[5] %v; want 5ms 9ms 4ms 5ms", st.lat[0], st.lat[1], st.wait[1], st.lat[5])
	}
	if st.maxBacklog != 5 || len(st.late) != 1 || st.late[0] != 0 {
		t.Errorf("maxBacklog %d late %v; want 5 and one on-time wake-up", st.maxBacklog, st.late)
	}
}

func TestMarkerVerifierCatchesLostAndDuplicated(t *testing.T) {
	doc := initialDoc(3, 8)
	want := map[string]bool{}
	for _, m := range doc {
		want[m] = true
	}
	whole := strings.Join(doc, "")
	if err := checkMarkers(whole, want, true); err != nil {
		t.Fatalf("intact document rejected: %v", err)
	}
	for name, planted := range map[string]string{
		"lost":       strings.Join(doc[:7], ""),
		"duplicated": whole + doc[2],
		"unknown":    whole + marker('z', 1),
		"torn":       whole[:len(whole)-3],
		"misaligned": whole[1:] + "x",
	} {
		err := checkMarkers(planted, want, true)
		if (name == "lost") != (checkMarkers(planted, want, false) == nil) {
			t.Errorf("%s: only a lost marker may pass the inexact check", name)
		}
		if err == nil {
			t.Errorf("%s marker not caught", name)
		} else if name == "lost" || name == "duplicated" {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s marker reported as %v", name, err)
			}
		}
	}
}

// The transport wrapper counts every byte and write on both ends and
// times one exchange per request, whatever the bytes are.
func TestMeterAccounting(t *testing.T) {
	rec := newRecorder()
	lg := newLeg("leg", rec)
	m := &meteredLink{link: memnet.Listen(1), leg: lg, cause: func(*legConn) (uint64, uint64) { return 7, 9 }}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Replies in two writes to a request read whole.
		defer wg.Done()
		srv, err := m.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(srv, buf); err != nil {
				return
			}
			srv.Write(buf[:32])
			srv.Write(buf[32:])
		}
	}()
	c, err := m.Dial()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		// A request in two writes and a reply in two reads is one exchange.
		if _, err := c.Write(buf[:24]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(buf[24:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
	snap := lg.snapshot()
	if len(snap.durs) != 3 || snap.bytes != 3*2*64 || snap.writes != 3*4 {
		t.Errorf("%d exchanges, %d bytes, %d writes; want 3, %d, 12", len(snap.durs), snap.bytes, snap.writes, 3*2*64)
	}
	c.Close()
	wg.Wait()
	m.Close()
	rows, _ := rec.selfTimes(nil)
	if len(rows) != 1 || rows[0].Name != "leg" || rows[0].Count != 3 {
		t.Errorf("spans = %+v, want 3 named leg", rows)
	}
	for _, s := range rec.spans {
		if s.Parent != 7 || s.Req != 9 || s.End < s.Start {
			t.Errorf("span %+v: want parent 7, req 9, end after start", s)
		}
	}
	lg.reset()
	if snap := lg.snapshot(); len(snap.durs)+int(snap.bytes)+int(snap.writes) != 0 {
		t.Errorf("reset left %+v", snap)
	}
}

// scheduleHash folds everything the generators produce for a seed.
func scheduleHash(seed uint64) uint64 {
	h := fnv.New64a()
	g := &docGen{r: newRNG(seed, "spine/0"), class: 'a', doc: initialDoc(0, docMarkers), lo: docLo, hi: docHi}
	for i := 0; i < 2000; i++ {
		op := g.nextOp()
		fmt.Fprintf(h, "%v %d %s|", op.ins, op.pos, op.text)
	}
	for _, d := range arrivals(newRNG(seed, "spine/arrivals/0"), openRate/numClients, 200*time.Millisecond) {
		fmt.Fprintf(h, "%d|", d)
	}
	mix := &mixGen{r: newRNG(seed, "spine/1"), class: 'b'}
	for i := 0; i < 2000; i++ {
		op := mix.nextOp()
		fmt.Fprintf(h, "%c %v %s|", op.kind, op.frac, op.text)
	}
	for _, op := range scatterScript(newRNG(seed, "merge_scatter"), mergeStructs, scatterListLen, scatterOps) {
		fmt.Fprintf(h, "%d %v %d %d|", op.list, op.ins, op.pos, op.val)
	}
	fmt.Fprint(h, newRNG(seed, "merge_runs").ints(64), g.content())
	return h.Sum64()
}

// The same seed gives byte-identical inputs, on every run and Go version.
func TestGeneratorsAreSeeded(t *testing.T) {
	const golden = 0x36a9633114128696
	a, b := scheduleHash(1), scheduleHash(1)
	if a != b {
		t.Fatalf("same seed, different inputs: %#x vs %#x", a, b)
	}
	if a != golden {
		t.Errorf("inputs for seed 1 hash to %#x, want %#x: the generators changed, so results no longer compare with earlier ones", a, golden)
	}
	if scheduleHash(2) == a {
		t.Error("seed 2 generated the same inputs as seed 1")
	}
}

// docGen never produces an op the client queue would coalesce with the
// one before it, keeps the document within bounds, and its doc is the
// sequential replay of its ops.
func TestDocGenReplay(t *testing.T) {
	g := &docGen{r: newRNG(7, "t"), class: 'a', doc: initialDoc(0, docMarkers), lo: docLo, hi: docHi}
	replay := strings.Join(initialDoc(0, docMarkers), "")
	var prev editOp
	for i := 0; i < 5000; i++ {
		op := g.nextOp()
		if op.ins {
			replay = replay[:op.pos] + op.text + replay[op.pos:]
		} else {
			if replay[op.pos:op.pos+markerLen] != op.text {
				t.Fatalf("op %d deletes %q but the replay holds %q there", i, op.text, replay[op.pos:op.pos+markerLen])
			}
			replay = replay[:op.pos] + replay[op.pos+markerLen:]
		}
		if i > 0 && (op.ins && prev.ins && op.pos == prev.pos+markerLen || !op.ins && !prev.ins && op.pos == prev.pos) {
			t.Fatalf("op %d %+v would coalesce with %+v", i, op, prev)
		}
		if n := len(g.doc); n < docLo-1 || n > docHi+1 {
			t.Fatalf("document left its bounds: %d markers", n)
		}
		prev = op
	}
	if replay != g.content() {
		t.Fatal("generator's document differs from the replay of its ops")
	}
}

// Later changes may not edit the benchmark, so it may lean only on what
// ROADMAP items 2 and 3 promise to keep.
func TestImportAllowList(t *testing.T) {
	allowed := map[string]bool{
		"repro": true, "repro/internal/netsim": true, "repro/internal/collab": true, "repro/internal/memnet": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "repro" || strings.HasPrefix(path, "repro/") {
				if !allowed[path] {
					t.Errorf("%s imports %s, which later changes are free to remove", name, path)
				}
				local[filepath.Base(path)] = true
			} else if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
				t.Errorf("%s imports %s: standard library only", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && local[pkg.Name] && strings.HasPrefix(sel.Sel.Name, "Set") {
					t.Errorf("%s: %s.%s flips a process-global switch", fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// BENCHMARK.json and the program name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []spec `json:"end_to_end"`
		PerLayer   []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s in the program", i, file.Workloads[i], w.name)
		}
	}
	same := func(kind string, a, b []spec) {
		if len(a) != len(b) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(a), kind, len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, a[i], b[i])
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd)
	same("per-layer", file.PerLayer, perLayer)
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
}
