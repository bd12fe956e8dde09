package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportsAreNamed keeps the module's exports honest: every exported
// top-level func, type, const and var under internal/ or cmd/ must be
// named by some other identifier in the module, tests and bench/
// included. An export nothing names is dead API; delete it, or unexport
// it if its own package still uses it.
func TestExportsAreNamed(t *testing.T) {
	unused, err := unusedExports(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s is exported but nothing in the module names it", u)
	}
}

// TestExportsAreNamedCatchesPlanted runs the check on a small module with
// one unused exported constant planted beside used ones.
func TestExportsAreNamedCatchesPlanted(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod":          "module planted\n",
		"internal/x/x.go": "package x\n\nconst Used = 1\n\nconst Planted = 2\n\nfunc Helper() int { return Used }\n",
		"cmd/y/main.go":   "package main\n\nimport \"planted/internal/x\"\n\nfunc main() { _ = x.Helper() }\n",
		"bench/b.go":      "package b\n",
	} {
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, err := unusedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/x/x.go: Planted"}; !slices.Equal(unused, want) {
		t.Fatalf("unused exports %q, want %q", unused, want)
	}
}

// unusedExports parses every .go file under root (skipping testdata and
// hidden directories) and returns, as "file: Name" sorted, each exported
// top-level declaration of a non-test file under internal/ or cmd/ whose
// name no other identifier in any of the files carries.
func unusedExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	decls := map[*ast.Ident]string{} // declaring identifier → its file
	uses := map[string]int{}         // identifier name → occurrences
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		for _, id := range exportedDecls(f) {
			decls[id] = rel
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var unused []string
	for id, file := range decls {
		if uses[id.Name] == 1 { // the declaration itself
			unused = append(unused, file+": "+id.Name)
		}
	}
	slices.Sort(unused)
	return unused, nil
}

// exportedDecls returns the declaring identifiers of a file's exported
// top-level funcs (not methods), types, consts and vars.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return slices.DeleteFunc(ids, func(id *ast.Ident) bool { return !id.IsExported() })
}
