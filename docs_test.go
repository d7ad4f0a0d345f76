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
// package and each -flag passed to it, every `make` target and every
// Benchmark… function cited in README.md, DESIGN.md, EXPERIMENTS.md or the
// verify skill must exist. Commands are read only from code spans and
// fenced blocks, so prose such as "make the" is not taken for a target.
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
	goRun := regexp.MustCompile("go run (\\./[\\w./-]*)([^\n`|&;>#]*)")
	flagUse := regexp.MustCompile(`(?:^|\s)--?([a-z][\w-]*)`)
	flagDecl := regexp.MustCompile(`flag\.\w+\("([\w-]+)"|flag\.\w+Var\([^,]+, "([\w-]+)"`)
	flagsOf := map[string]map[string]bool{} // package directory → declared flags
	declared := func(dir string) map[string]bool {
		if flags, ok := flagsOf[dir]; ok {
			return flags
		}
		flags := map[string]bool{}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, f := range files {
			if src, err := os.ReadFile(f); err == nil && !strings.HasSuffix(f, "_test.go") {
				for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
					flags[m[1]+m[2]] = true
				}
			}
		}
		flagsOf[dir] = flags
		return flags
	}
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
					continue
				}
				for _, f := range flagUse.FindAllStringSubmatch(m[2], -1) {
					if !declared(m[1])[f[1]] {
						t.Errorf("%s runs %q, but %s declares no flag -%s", doc, strings.TrimSpace(m[0]), m[1], f[1])
					}
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
