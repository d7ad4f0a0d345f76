package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"time"
)

// rng is splitmix64: a pinned generator, so the same -seed produces the
// same inputs on every Go version.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a stream
// name; every generator takes its own so adding one never shifts another.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := &rng{s: seed ^ h.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rng) float() float64   { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) ints(n int) []int { return fill(n, func() int { return int(r.next() >> 33) }) }

func fill[T any](n int, f func() T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = f()
	}
	return out
}

// Documents are made of fixed-width markers: one class letter, six
// base-36 digits, a semicolon. Every edit inserts or deletes one whole
// marker at a marker boundary, so documents stay bounded, positions stay
// aligned under OT, and a final document can be checked marker by marker.
const markerLen = 8

const base36 = "0123456789abcdefghijklmnopqrstuvwxyz"

func marker(class byte, n uint64) string {
	var b [markerLen]byte
	b[0] = class
	for i := markerLen - 2; i >= 1; i-- {
		b[i] = base36[n%36]
		n /= 36
	}
	b[markerLen-1] = ';'
	return string(b[:])
}

// initialDoc builds document number doc with n markers of class 'i'.
func initialDoc(doc, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = marker('i', uint64(doc)*4096+uint64(i))
	}
	return out
}

// splitMarkers cuts a document into its markers, or reports the first
// place where it is not made of whole ones.
func splitMarkers(doc string) ([]string, error) {
	if len(doc)%markerLen != 0 {
		return nil, fmt.Errorf("length %d is not a multiple of %d", len(doc), markerLen)
	}
	out := make([]string, 0, len(doc)/markerLen)
	for i := 0; i < len(doc); i += markerLen {
		m := doc[i : i+markerLen]
		if m[markerLen-1] != ';' || strings.IndexByte(m[:markerLen-1], ';') >= 0 {
			return nil, fmt.Errorf("broken marker %q at offset %d", m, i)
		}
		out = append(out, m)
	}
	return out, nil
}

// checkMarkers verifies a final document against what the clients did:
// whole markers, each of them in want, none twice. With exact set it must
// hold every marker in want, so one missing from it is lost; a marker
// seen twice is duplicated, one not in want is unknown (or was deleted and
// came back).
func checkMarkers(doc string, want map[string]bool, exact bool) error {
	got, err := splitMarkers(doc)
	if err != nil {
		return err
	}
	seen := make(map[string]bool, len(got))
	for _, m := range got {
		if seen[m] {
			return fmt.Errorf("marker %q duplicated", m)
		}
		seen[m] = true
		if !want[m] {
			return fmt.Errorf("marker %q unknown or resurrected", m)
		}
	}
	for m := range want {
		if exact && !seen[m] {
			return fmt.Errorf("marker %q lost", m)
		}
	}
	return nil
}

// editOp is one generated edit: insert text at rune offset pos, or delete
// the marker text found there.
type editOp struct {
	ins  bool
	pos  int
	text string
}

// docGen generates the edits of a document's single writer and keeps the
// sequential replay of them in doc, which the server's final document
// must equal. The marker count stays within [lo, hi]. An op that the
// client queue would coalesce with the one before it (an insert right
// after the last insert, a delete at the last delete's position) is never
// generated, so queued ops, acked ops and server edits count the same.
type docGen struct {
	r      *rng
	class  byte
	serial uint64
	doc    []string
	lo, hi int
	prev   editOp
}

func (g *docGen) nextOp() editOp {
	n := len(g.doc)
	ins := g.r.intn(2) == 0
	if n <= g.lo {
		ins = true
	} else if n >= g.hi {
		ins = false
	}
	var op editOp
	for {
		if ins {
			op = editOp{ins: true, pos: g.r.intn(n+1) * markerLen}
			if g.prev.ins && g.prev.text != "" && op.pos == g.prev.pos+markerLen {
				continue
			}
		} else {
			op = editOp{pos: g.r.intn(n) * markerLen}
			if !g.prev.ins && g.prev.text != "" && op.pos == g.prev.pos {
				continue
			}
		}
		break
	}
	i := op.pos / markerLen
	if ins {
		op.text = marker(g.class, g.serial)
		g.serial++
		g.doc = slices.Insert(g.doc, i, op.text)
	} else {
		op.text = g.doc[i]
		g.doc = slices.Delete(g.doc, i, i+1)
	}
	g.prev = op
	return op
}

func (g *docGen) content() string { return strings.Join(g.doc, "") }

// arrivals draws the due times of an open-loop schedule: a Poisson
// process of the given rate over dur, as offsets from the start.
func arrivals(r *rng, perSecond float64, dur time.Duration) []time.Duration {
	mean := float64(time.Second) / perSecond
	out := make([]time.Duration, 0, int(perSecond*dur.Seconds()*1.05)+16)
	for t := 0.0; ; {
		t += -mean * math.Log(1-r.float())
		if time.Duration(t) >= dur {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// mixOp is one step of the shared-document workload. Where it lands is
// decided at run time from frac and the size of the document the client
// last saw, because the other client moves the document underneath.
type mixOp struct {
	kind byte // 'i' insert, 'd' delete, 'g' get
	frac float64
	text string
}

// mixGen draws the 40/40/20 insert/delete/get mix of spine_single.
type mixGen struct {
	r      *rng
	class  byte
	serial uint64
}

func (g *mixGen) nextOp() mixOp {
	op := mixOp{frac: g.r.float()}
	switch p := g.r.intn(10); {
	case p < 4:
		op.kind = 'i'
	case p < 8:
		op.kind = 'd'
	default:
		op.kind = 'g'
	}
	// The marker is drawn for every op so the stream does not depend on
	// which ops the run-time size bounds turn into inserts.
	op.text = marker(g.class, g.serial)
	g.serial++
	return op
}

// scatterOp is one random-position list edit of merge_scatter.
type scatterOp struct {
	list int
	ins  bool
	pos  int
	val  int
}

// scatterScript draws n edits over lists that start with size elements
// each; positions are valid for a task that applies only its own script.
func scatterScript(r *rng, lists, size, n int) []scatterOp {
	lens := fill(lists, func() int { return size })
	return fill(n, func() scatterOp {
		op := scatterOp{list: r.intn(lists), ins: r.intn(2) == 0, val: int(r.next() >> 33)}
		if lens[op.list] == 0 {
			op.ins = true
		}
		if op.ins {
			op.pos = r.intn(lens[op.list] + 1)
			lens[op.list]++
		} else {
			op.pos = r.intn(lens[op.list])
			lens[op.list]--
		}
		return op
	})
}
