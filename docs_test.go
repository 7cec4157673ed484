package ktpm

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

// TestDocLinks fails the build when a relative markdown link in README.md
// or docs/*.md points at a missing file. The docs are part of the public
// surface; CI runs this via go test and the lint job.
func TestDocLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no docs/*.md files found")
	}
	files = append(files, docs...)
	// Capture the target of ](...) up to a closing paren or #fragment.
	linkRe := regexp.MustCompile(`\]\(([^)#]+)`)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := strings.TrimSpace(m[1])
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not resolve (%v)", f, target, err)
			}
		}
	}
}

// TestCommentDocCitations fails when a Go comment outside benchmark/
// cites a markdown file that does not exist. A cited name resolves at the
// repository root, under docs/, or beside the citing file.
func TestCommentDocCitations(t *testing.T) {
	mdRe := regexp.MustCompile(`[\w./-]*\w\.md\b`)
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdRe.FindAllString(cg.Text(), -1) {
				if strings.HasPrefix(name, "/") {
					continue // the path part of a URL
				}
				checked++
				if !docResolves(path, name) {
					t.Errorf("%s: comment cites %s, which resolves neither at the repository root, under docs/, nor beside the file", fset.Position(cg.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown citations found in Go comments")
	}
}

func docResolves(citer, name string) bool {
	for _, p := range []string{name, filepath.Join("docs", name), filepath.Join(filepath.Dir(citer), name)} {
		if _, err := os.Stat(p); err == nil {
			return true
		}
	}
	return false
}
