package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMeasurementSeesNoGroundTruth holds the closed-loop boundary: the
// measurement side (filter, analysis, core, report) may use internal/model's
// conditioning definitions (Period, the query-count buckets, the key
// periods, PeriodOf) and the Params type its fits fill, but never the
// generator's parameter values. A non-test file that names model.Default
// could read the generator's answer instead of recovering it from the
// trace; one that imports a package holding the generator's *model.Params
// (workload, behavior, capture, engine, vocab) could be handed it.
func TestMeasurementSeesNoGroundTruth(t *testing.T) {
	forbidden := map[string]bool{"Default": true}
	generatorSide := map[string]bool{
		"repro/internal/workload": true,
		"repro/internal/behavior": true,
		"repro/internal/capture":  true,
		"repro/internal/engine":   true,
		"repro/internal/vocab":    true,
	}
	for _, dir := range []string{"../analysis", "../filter", ".", "../report"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			local := ""
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if generatorSide[p] {
					t.Errorf("%s imports %s: measurement code must not reach the generator's parameters", path, p)
				}
				if p == "repro/internal/model" {
					local = "model"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && forbidden[sel.Sel.Name] {
					t.Errorf("%s references %s.%s: measurement code must not see the generator's parameters",
						path, local, sel.Sel.Name)
				}
				return true
			})
		}
	}
}
