package repro

import (
	"go/parser"
	"go/token"
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
// verify skill must exist, and so must every pkg.Name cited in a code span
// of the first two or the skill (pkg being repro or a package directly
// under internal/): a top-level declaration of its non-test files.
// EXPERIMENTS.md is history and may name deleted code, commands and flags,
// so only its Benchmark… citations are checked. Commands are read only
// from code spans and fenced blocks, so prose such as "make the" is not
// taken for a target. The Makefile and the CI workflows are read as plain
// text: every `go run ./…` (or `$(GO) run ./…`) there must name a package
// and flags that exist, and every `make` a target, so a deleted command
// fails here, not in the next CI run.
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
	goRun := regexp.MustCompile("(?:go|\\$\\(GO\\)) run (\\./[\\w./-]*)([^\n`|&;>#]*)")
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
	declsOf := map[string]map[string]bool{} // package directory → top-level names
	topLevel := func(dir string) map[string]bool {
		if names, ok := declsOf[dir]; ok {
			return names
		}
		names := map[string]bool{}
		notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		pkgs, _ := parser.ParseDir(token.NewFileSet(), dir, notTest, 0)
		for _, p := range pkgs {
			for _, f := range p.Files {
				for name := range f.Scope.Objects { // top-level, methods excluded
					names[name] = true
				}
			}
		}
		declsOf[dir] = names
		return names
	}
	cite := regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)`)
	makeRun := regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	benchRef := regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	checkRuns := func(doc, text string) {
		for _, m := range goRun.FindAllStringSubmatch(text, -1) {
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
		for _, m := range makeRun.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s runs %q, which the Makefile does not define", doc, m[0])
			}
		}
	}
	workflows, _ := filepath.Glob(".github/workflows/*.yml")
	for _, f := range append(workflows, "Makefile") {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		checkRuns(f, string(text))
	}
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
			if doc != "EXPERIMENTS.md" {
				checkRuns(doc, span)
			}
			for _, m := range cite.FindAllStringSubmatch(span, -1) {
				dir := filepath.Join("internal", m[1])
				if m[1] == "repro" {
					dir = "."
				}
				if fi, err := os.Stat(dir); doc == "EXPERIMENTS.md" || err != nil || !fi.IsDir() {
					continue
				}
				if !topLevel(dir)[m[2]] {
					t.Errorf("%s cites %s, which %s does not declare", doc, m[0], dir)
				}
			}
		}
	}
}
