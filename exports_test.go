package remac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the exports under internal/ that no program file names
// but that stay, each with why. A key is pkg.Name for a func, const or var
// and pkg.Type.Method for a method.
var testOnlyExports = map[string]string{
	"distmat.Context.Idle":            "the engine's ownership tests read a run's free list",
	"distmat.DistMatrix.Fused":        "the engine's transpose tests read the transpose a value keeps",
	"distmat.DistMatrix.Deferred":     "the engine's ownership tests find the values a run leaves deferred",
	"distmat.DistMatrix.Reads":        "the engine's ownership tests check the buffers a deferred value reads",
	"distmat.DistMatrix.Checkpointed": "distmat's fault tests check that a value was persisted",
	"cluster.Stats.TotalBytes":        "the engine and distmat tests compare volume over all primitives",
	"cluster.Cluster.Reset":           "distmat's tests charge one cluster afresh",
	"fault.FromEvents":                "the engine, distmat, cluster and serve tests place fault events by hand",
	"matrix.Matrix.FrobeniusNorm":     "the engine's tests check an algorithm's residual",
	"matrix.Matrix.DenseRow":          "the engine and data tests compare matrices row by row",
	"matrix.Matrix.Equal":             "the engine, data, distmat and integrity tests compare cells",
	"matrix.RandSymmetric":            "the plan tests build symmetric inputs",
	"sparsity.Meta.WithVirtualDims":   "the engine's tests price an input at its full scale",
	"gateway.Gateway.ProbeNow":        "the gateway's tests drive probe rounds without the background prober",
	"resilience.MarkTransient":        "the serve and httpapi tests make an execution error retryable",
	// Methods of standard-library interfaces, which the standard library
	// calls.
	"serve.ValueSummary.MarshalJSON":   "encoding/json calls it",
	"serve.ValueSummary.UnmarshalJSON": "encoding/json calls it",
	"engine.MaxIterationsError.Unwrap": "errors.Is and errors.As call it",
	"gateway.wireError.Unwrap":         "errors.Is and errors.As call it",
	"integrity.Error.Unwrap":           "errors.Is and errors.As call it",
	"integrity.NumericError.Unwrap":    "errors.Is and errors.As call it",
	"resilience.QueryError.Unwrap":     "errors.Is and errors.As call it",
	"resilience.QueryError.Is":         "errors.Is calls it",
	"resilience.transientError.Unwrap": "errors.Is and errors.As call it",
}

// TestInternalExportsHaveUsers: every exported func, method, const or var
// declared in a program file under internal/ is named in some program file
// other than by its declaration — in this module or in benchmark/, cmd/ or
// examples/ — or is in testOnlyExports. A func is named as pkg.Name from
// another package or as Name inside its own; a method is named by any
// selector .Name, whatever its receiver. An export that only tests call is
// a capability no production path runs: delete it, or move it into the
// tests that use it. An entry of testOnlyExports that is named after all,
// or no longer declared, fails too.
func TestInternalExportsHaveUsers(t *testing.T) {
	type decl struct {
		key, where string
		method     bool
		pkg, name  string // pkg is the import path
	}
	var decls []decl
	pkgUses := map[[2]string]bool{} // {import path, name}
	memberUses := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		own := path.Join("remac", dir)
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ipath)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ipath
		}

		declared := map[*ast.Ident]bool{}
		underInternal := strings.HasPrefix(dir, "internal/")
		add := func(id *ast.Ident, recv string) {
			declared[id] = true
			if !underInternal || !id.IsExported() {
				return
			}
			key := f.Name.Name + "." + id.Name
			if recv != "" {
				key = f.Name.Name + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key: key, where: fset.Position(id.Pos()).String(),
				method: recv != "", pkg: own, name: id.Name})
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if dl.Recv != nil {
					recv = typeName(dl.Recv.List[0].Type)
				}
				add(dl.Name, recv)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							add(id, "")
						}
					}
				}
			}
		}

		selected := map[*ast.Ident]bool{} // the Sel of a non-package selector
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					pkgUses[[2]string{imports[x.Name], n.Sel.Name}] = true
					return false
				}
				memberUses[n.Sel.Name] = true
				selected[n.Sel] = true
			case *ast.Ident:
				if !declared[n] && !selected[n] {
					pkgUses[[2]string{own, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		named := pkgUses[[2]string{d.pkg, d.name}]
		if d.method {
			named = memberUses[d.name]
		}
		_, allowed := testOnlyExports[d.key]
		switch {
		case !named && !allowed:
			unused = append(unused, d.where+": "+d.key)
		case named && allowed:
			t.Errorf("%s: %s is in testOnlyExports but a program file names it", d.where, d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no program file: delete it, move it into its tests, or say in testOnlyExports why it stays", u)
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("testOnlyExports holds %s, which internal/ no longer declares", key)
		}
	}
}
