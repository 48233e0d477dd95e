package remac_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose the doc-link test holds to the tree.
var linkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// generatedFiles are named in the docs but written by a run, not committed.
var generatedFiles = map[string]bool{"BENCH_faults.json": true}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	filePath = regexp.MustCompile(`^[\w./-]+\.(?:go|md|json|sh|yml)$`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocLinksResolve: every back-ticked Test/Benchmark/Fuzz name in the docs
// is a function in some _test.go file (a trailing * names a prefix), and every
// back-ticked span that is a file path exists — relative to the repository
// root, or, for a bare file name, anywhere in the tree. A PR that deletes a test or a file
// fails here until its prose follows.
func TestDocLinksResolve(t *testing.T) {
	funcs := map[string]bool{}
	files := map[string]bool{} // base names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(name string) bool {
		prefix, isPrefix := strings.CutSuffix(name, "*")
		if !isPrefix {
			return funcs[name]
		}
		for f := range funcs {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}

	for _, doc := range linkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, name := range testName.FindAllString(span[1], -1) {
					if !resolves(name) {
						t.Errorf("%s:%d: `%s` names no test function", doc, i+1, name)
					}
				}
				path := span[1]
				if !filePath.MatchString(path) || generatedFiles[path] {
					continue
				}
				if strings.Contains(path, "/") {
					if _, err := os.Stat(path); err != nil {
						t.Errorf("%s:%d: `%s` is not a file in the repository", doc, i+1, path)
					}
				} else if !files[path] {
					t.Errorf("%s:%d: no file named `%s` in the tree", doc, i+1, path)
				}
			}
		}
	}
}
