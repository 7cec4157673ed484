package ktpm_test

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ktpm"
	"ktpm/internal/server"
)

var updateAPI = flag.Bool("update", false, "rewrite the api/*.txt surface goldens")

// TestAPISurface diffs the public surface against the goldens under api/:
// the exported identifiers of package ktpm, the ktpmd flag names, and the
// metric families a server renders on /metrics. Surface changes only
// through a reviewed diff of these files; go test -run TestAPISurface
// -update rewrites them.
func TestAPISurface(t *testing.T) {
	for _, s := range []struct {
		golden string
		lines  func(t *testing.T) []string
	}{
		{"api/ktpm.txt", exportedIdentifiers},
		{"api/ktpmd-flags.txt", ktpmdFlags},
		{"api/metrics.txt", metricFamilies},
	} {
		got := strings.Join(s.lines(t), "\n") + "\n"
		if *updateAPI {
			if err := os.MkdirAll(filepath.Dir(s.golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(s.golden)
		if err != nil {
			t.Fatalf("%v (run go test -run TestAPISurface -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s is stale:\n%s(run go test -run TestAPISurface -update after reviewing the change)", s.golden, lineDiff(string(want), got))
		}
	}
}

// exportedIdentifiers lists package ktpm's exported constants, variables,
// functions, types, methods and struct/interface fields, one per line.
func exportedIdentifiers(t *testing.T) []string {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "ktpm")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, n := range v.Names {
				if token.IsExported(n) {
					out = append(out, kind+" "+n)
				}
			}
		}
	}
	funcs := func(prefix string, fs []*doc.Func) {
		for _, f := range fs {
			out = append(out, prefix+f.Name)
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs("func ", pkg.Funcs)
	for _, ty := range pkg.Types {
		out = append(out, "type "+ty.Name)
		values("const", ty.Consts)
		values("var", ty.Vars)
		funcs("func ", ty.Funcs)
		funcs("method "+ty.Name+".", ty.Methods)
		for _, spec := range ty.Decl.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			var fields *ast.FieldList
			switch x := ts.Type.(type) {
			case *ast.StructType:
				fields = x.Fields
			case *ast.InterfaceType:
				fields = x.Methods
			}
			if fields == nil {
				continue
			}
			for _, fl := range fields.List {
				for _, n := range fl.Names {
					if n.IsExported() {
						out = append(out, "field "+ty.Name+"."+n.Name)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// ktpmdFlags lists the flag names cmd/ktpmd/main.go registers, read from
// the first argument of every flag.Type(name, ...) call.
func ktpmdFlags(t *testing.T) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("cmd", "ktpmd", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, name)
		return true
	})
	sort.Strings(out)
	return out
}

// metricFamilies lists the metric family names (# TYPE lines) a server
// over an in-memory database renders on /metrics after one query.
func metricFamilies(t *testing.T) []string {
	gb := ktpm.NewGraphBuilder()
	a := gb.AddNode("a")
	b := gb.AddNode("b")
	gb.AddEdge(a, b)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(db, server.Config{})
	defer s.Close()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec
	}
	get("/query?q=a(b)&k=1")
	var out []string
	sc := bufio.NewScanner(get("/metrics").Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2])
		}
	}
	sort.Strings(out)
	return out
}

// lineDiff renders the lines only in want as "-" and only in got as "+".
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var b strings.Builder
	for _, l := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		if w[l] > g[l] {
			fmt.Fprintf(&b, "-%s\n", l)
			w[l]--
		}
	}
	w = count(want)
	for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if g[l] > w[l] {
			fmt.Fprintf(&b, "+%s\n", l)
			g[l]--
		}
	}
	return b.String()
}
