package ktpm

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// reproductionOnly are the packages that exist to reproduce the paper's
// evaluation: the DP-B/DP-P baselines, the 2-hop-label oracle, the
// experiment harness and the graph and query generators. The serving
// binary links none of them.
var reproductionOnly = []string{
	"ktpm/internal/dp",
	"ktpm/internal/pll",
	"ktpm/internal/bench",
	"ktpm/internal/gen",
}

// materializing are the packages that build the full run-time graph
// (Algorithm 1 and its match counter). Non-test code of this package may
// use them only inside the allowlisted functions: CountMatches counts
// every match, which needs the whole graph, and ktpm -count and three
// examples ship on it.
var (
	materializing  = []string{"ktpm/internal/rtg", "ktpm/internal/core"}
	mayMaterialize = map[string]bool{"Database.CountMatches": true}
)

// TestServingFence holds the line between serving and reproduction:
// cmd/ktpmd's import closure holds no reproduction-only package, and
// every public entry point of this package except CountMatches runs
// Topk-EN rather than materializing the run-time graph.
func TestServingFence(t *testing.T) {
	via := importClosure(t, "ktpm/cmd/ktpmd")
	if len(via) < 5 {
		t.Fatalf("import closure of cmd/ktpmd has %d packages; the walk is broken", len(via))
	}
	for _, p := range reproductionOnly {
		if from, ok := via[p]; ok {
			t.Errorf("cmd/ktpmd links reproduction-only %s (imported by %s)", p, from)
		}
	}

	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]string{} // local package name -> import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, m := range materializing {
				if path == m {
					n := filepath.Base(path)
					if imp.Name != nil {
						n = imp.Name.Name
					}
					local[n] = path
				}
			}
		}
		if len(local) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			owner := declName(decl)
			if mayMaterialize[owner] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok {
					if path, ok := local[id.Name]; ok {
						t.Errorf("%s: %s uses %s.%s; only %v may use %s",
							fset.Position(sel.Pos()), owner, id.Name, sel.Sel.Name, mayMaterialize, path)
					}
				}
				return true
			})
		}
	}
}

// importClosure walks the non-test imports of root inside this module,
// resolving "ktpm/..." paths against the repository. It returns every
// module package reached, each mapped to a package that imports it.
func importClosure(t *testing.T, root string) map[string]string {
	t.Helper()
	via := map[string]string{root: ""}
	queue := []string{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		dir := "." + strings.TrimPrefix(p, "ktpm")
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range pkg.Imports {
			if imp != "ktpm" && !strings.HasPrefix(imp, "ktpm/") {
				continue
			}
			if _, seen := via[imp]; !seen {
				via[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	return via
}

// declName names a top-level declaration the way mayMaterialize lists
// it: "Func", "Type.Method", or "" for a non-function declaration.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
