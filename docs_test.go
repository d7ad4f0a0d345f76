package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteWhatExists keeps the documentation honest: every `go run ./…`
// package, every `make` target and every Benchmark… function cited in
// README.md, DESIGN.md, EXPERIMENTS.md or the verify skill must exist.
// Commands are read only from code spans and fenced blocks, so prose such
// as "make the" is not taken for a target.
func TestDocsCiteWhatExists(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	benches := map[string]bool{}
	benchDecl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range benchDecl.FindAllStringSubmatch(string(src), -1) {
			benches[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	code := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	goRun := regexp.MustCompile(`go run (\./[\w./-]*)`)
	makeRun := regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	benchRef := regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range benchRef.FindAllString(string(text), -1) {
			if !benches[name] {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
		for _, span := range code.FindAllString(string(text), -1) {
			for _, m := range goRun.FindAllStringSubmatch(span, -1) {
				if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
					t.Errorf("%s runs %q, which is not a directory of this module", doc, m[0])
				}
			}
			for _, m := range makeRun.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s runs %q, which the Makefile does not define", doc, m[0])
				}
			}
		}
	}
}
