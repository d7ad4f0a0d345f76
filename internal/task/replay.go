package task

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
)

// Record & replay for the non-deterministic merges. Programs built only
// from MergeAll/MergeAllFromSet are deterministic by construction; the
// moment a program opts into MergeAny/MergeAnyFromSet (servers,
// interactive applications), its outcome depends on which child wins each
// race. A MergeScript captures exactly those decisions — nothing else is
// non-deterministic in the model — so replaying the script reproduces a
// recorded execution bit for bit. This extends the paper's debugging
// story to the programs that deliberately left determinism behind.

// MergeScript is the recorded sequence of non-deterministic merge picks,
// and the Decider that replays and records them. Children are identified
// by their creation path (per-parent creation sequence numbers from the
// root), which is stable across runs of the same program; task IDs are
// not. A run driven by a script forces its recorded picks path by path
// and appends every pick past them, so one script replays its prefix and
// keeps recording after it; an empty script simply records.
//
// A script is safe for concurrent use: pooled and fan-out-heavy programs
// reach it from the merge paths of many tasks at once.
type MergeScript struct {
	mu      sync.Mutex
	picks   map[string][]uint64 // parent path -> child seqs in pick order
	cursors map[string]int      // picks committed per path in this run
}

// NewMergeScript returns an empty script.
func NewMergeScript() *MergeScript {
	return &MergeScript{}
}

// Pick implements Decider: the path's next recorded pick, if any.
func (s *MergeScript) Pick(parentPath string, _ []uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, p := s.cursors[parentPath], s.picks[parentPath]
	if i >= len(p) {
		return 0, false
	}
	return p[i], true
}

// Picked implements Decider. Within the recorded picks the runtime only
// commits what Pick forced, so the cursor moves past it; past them the
// pick is fresh and appended.
func (s *MergeScript) Picked(parentPath string, childSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.picks == nil {
		s.picks = make(map[string][]uint64)
	}
	if s.cursors == nil {
		s.cursors = make(map[string]int)
	}
	i := s.cursors[parentPath]
	if i == len(s.picks[parentPath]) {
		s.picks[parentPath] = append(s.picks[parentPath], childSeq)
	}
	s.cursors[parentPath] = i + 1
}

// Yield implements Decider; a script leaves the schedule alone.
func (s *MergeScript) Yield() {}

// Rewind moves every path back to its first recorded pick, so the script
// drives another replay. RunWith rewinds a script installed as its
// Decider.
func (s *MergeScript) Rewind() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cursors = nil
}

// Len returns the total number of recorded picks.
func (s *MergeScript) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.picks {
		n += len(p)
	}
	return n
}

// Picks returns a deep copy of the recorded picks, keyed by parent path.
func (s *MergeScript) Picks() map[string][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]uint64, len(s.picks))
	for path, seqs := range s.picks {
		out[path] = append([]uint64(nil), seqs...)
	}
	return out
}

// pathPicks is the stable on-disk form of one parent's picks.
type pathPicks struct {
	Path string
	Seqs []uint64
}

// Snapshot returns a self-contained, deterministic encoding of the
// recorded picks: the same picks always produce the same bytes (paths are
// sorted), so snapshots embedded in journal checkpoints are comparable.
// Replay cursors are not part of the snapshot.
func (s *MergeScript) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	flat := make([]pathPicks, 0, len(s.picks))
	for path, seqs := range s.picks {
		flat = append(flat, pathPicks{Path: path, Seqs: append([]uint64(nil), seqs...)})
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].Path < flat[j].Path })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(flat); err != nil {
		// Encoding strings and uint64s into a bytes.Buffer cannot fail.
		panic(fmt.Sprintf("task: MergeScript snapshot: %v", err))
	}
	return buf.Bytes()
}

// Restore replaces the script's contents with a Snapshot's, rewinding the
// replay cursors.
func (s *MergeScript) Restore(data []byte) error {
	var flat []pathPicks
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&flat); err != nil {
		return fmt.Errorf("task: restore merge script: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.picks = make(map[string][]uint64, len(flat))
	for _, p := range flat {
		s.picks[p.Path] = p.Seqs
	}
	s.cursors = nil
	return nil
}
