package remac_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
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
	// pkgIdent is pkg.Ident or pkg.Type.Member, not inside a path or a longer
	// selector.
	pkgIdent = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// TestDocLinksResolve: every back-ticked Test/Benchmark/Fuzz name in the docs
// is a function in some _test.go file (a trailing * names a prefix), every
// back-ticked span that is a file path exists — relative to the repository
// root, or, for a bare file name, anywhere in the tree — and every
// `pkg.Ident` or `pkg.Type.Member` whose pkg is a package of this module
// names a declaration there (ledger metrics like `serve.plan_hit_rate`
// excepted). A PR that deletes a test, a file or a name fails here until its
// prose follows.
func TestDocLinksResolve(t *testing.T) {
	funcs := map[string]bool{}
	files := map[string]bool{} // base names
	decls := declarations{}
	var modules []string // nested modules, whose packages are not this module's
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				modules = append(modules, path+string(filepath.Separator))
			}
			return nil
		}
		files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				funcs[m[1]] = true
			}
		}
		for _, m := range modules {
			if strings.HasPrefix(path, m) {
				return nil
			}
		}
		return decls.add(path, src)
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
	metrics := ledgerMetrics(t)

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
					for _, m := range pkgIdent.FindAllStringSubmatch(path, -1) {
						name := m[1] + "." + m[2]
						if metrics[name] || decls.resolve(m[1], m[2], m[3]) {
							continue
						}
						if m[3] != "" {
							name += "." + m[3]
						}
						t.Errorf("%s:%d: `%s` names no declaration in package %s", doc, i+1, name, m[1])
					}
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

// declarations maps a package name to its top-level names, each type's
// methods, fields and interface methods as "Type.Member", and each type's
// embedded types as "Type." entries.
type declarations map[string]map[string][]string

// add records the declarations of one file, unless it is a command's or an
// external test package's.
func (d declarations) add(path string, src []byte) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := f.Name.Name
	if pkg == "main" || strings.HasSuffix(pkg, "_test") {
		return nil
	}
	names := d[pkg]
	if names == nil {
		names = map[string][]string{}
		d[pkg] = names
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				names[decl.Name.Name] = nil
			} else {
				names[typeName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = nil
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						names[n.Name] = nil
					}
				case *ast.TypeSpec:
					typ := spec.Name.Name
					names[typ] = names[typ] // a method may have come first
					var members []*ast.Field
					switch body := spec.Type.(type) {
					case *ast.StructType:
						members = body.Fields.List
					case *ast.InterfaceType:
						members = body.Methods.List
					}
					for _, m := range members {
						if len(m.Names) == 0 { // embedded: its members are promoted
							embedded := typeName(m.Type)
							names[typ+"."+embedded] = nil
							names[typ] = append(names[typ], embedded)
						}
						for _, n := range m.Names {
							names[typ+"."+n.Name] = nil
						}
					}
				}
			}
		}
	}
	return nil
}

// resolve reports whether pkg declares ident and, when member is set, whether
// ident.member is a method, field or interface method of it, directly or
// through an embedded type. A pkg that is no package of this module resolves.
func (d declarations) resolve(pkg, ident, member string) bool {
	names, ok := d[pkg]
	if !ok {
		return true
	}
	embedded, ok := names[ident]
	if !ok {
		return false
	}
	if member == "" {
		return true
	}
	if _, ok := names[ident+"."+member]; ok {
		return true
	}
	for _, e := range embedded {
		if d.resolve(pkg, e, member) {
			return true
		}
	}
	return false
}

// typeName is the name of a receiver or embedded type: T, *T, T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// ledgerMetrics is the set of per-layer metric names BENCHMARK.json declares:
// they read like pkg.ident but name a ledger line.
func ledgerMetrics(t *testing.T) map[string]bool {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range bench.PerLayer {
		names[m.Name] = true
	}
	return names
}
