package saga

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers holds every exported top-level function
// declared in a non-test file under internal/ to at least one reference
// from a non-test file of another package. The programs under cmd/ and
// examples/ and the benchmark module under bench/ count as callers; a
// test file does not, because a function only tests call is the
// package's own business and belongs unexported. A reference is a
// selector `pkg.Name` through the file's import of the declaring
// package, so a function passed as a value counts as called.
func TestInternalExportsHaveCallers(t *testing.T) {
	// allow names the functions kept exported without an outside caller,
	// each with its reason. Keep it short: an entry is an export no
	// other package needs.
	allow := map[string]string{}

	type fn struct{ pkg, name string }
	fset := token.NewFileSet()
	declared := map[fn]token.Position{}
	used := map[fn]bool{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The module is "saga" and bench/ is "saga/bench", so a
		// directory's import path is its path under the root.
		pkg := path.Join("saga", filepath.ToSlash(filepath.Dir(file)))
		if strings.HasPrefix(pkg, "saga/internal/") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					declared[fn{pkg, fd.Name.Name}] = fset.Position(fd.Pos())
				}
			}
		}
		imports := map[string]string{} // local name → import path, other packages only
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if p != pkg {
				imports[name] = p
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[fn{imports[id.Name], sel.Sel.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no exported function found under internal/")
	}
	var unused []string
	for f, pos := range declared {
		key := strings.TrimPrefix(f.pkg, "saga/internal/") + "." + f.name
		if !used[f] && allow[key] == "" {
			unused = append(unused, pos.String()+": "+key)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported, but no non-test file of another package calls it: unexport it, or delete it if nothing calls it", u)
	}
	t.Logf("%d exported functions under internal/, %d allowed without a caller", len(declared), len(allow))
}
