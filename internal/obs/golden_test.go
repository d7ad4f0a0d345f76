package obs_test

import (
	"os"
	"strings"
	"testing"
)

// TestSpanTreeGolden pins tracedProgram's span tree, rendered without
// durations, to testdata/spantree.golden. Any change in what the runtime
// spawns, merges, syncs or aborts, or in the order it does so, shows up as
// a diff against the committed file. On a difference the new rendering is
// written to a temporary file, to be copied over the golden one when the
// change is intended.
func TestSpanTreeGolden(t *testing.T) {
	const golden = "testdata/spantree.golden"
	tr, err := tracedProgram()
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Tree().String()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	f, err := os.CreateTemp("", "spantree-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(got); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("span tree differs from %s at line %d:\nwant:\n%s\ngot:\n%s\nnew rendering written to %s",
		golden, i+1, strings.Join(wl[i:min(i+5, len(wl))], "\n"), strings.Join(gl[i:min(i+5, len(gl))], "\n"), f.Name())
}
