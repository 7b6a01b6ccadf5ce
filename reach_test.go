// The reach gate: every exported package-level func, type, var and const
// under internal/ must be referenced by some non-test file, so a name
// that only its own tests call cannot pile up unnoticed. A name with a
// reason to stay unreached is listed in reachAllowed with that reason.
package repro

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

// reachAllowed lists the exported names under internal/ that no non-test
// file references, keyed by package path below internal/ and name, each
// with the reason it stays.
var reachAllowed = map[string]string{
	"chaos.FormatLog":        "the canonical fault-log text the chaos determinism tests compare",
	"dialect.Identity":       "the dialect that changes nothing, which the goal packages' candidate tests speak",
	"enumerate.FST":          "the paper's generic user class, every FST over a space, enumerated by the universal-user property tests",
	"goal.UnacceptableCount": "the recorded-history referee's progress count, beside CompactAchieved and LastUnacceptable",
	"goal.WithReferee":       "derived referees; the root alloc pins judge a goal through one",
	"obs.LevelError":         "completes the log levels that Logger filters on",
	"sensing.Const":          "the constant sense, a fixture for user and sweep tests in several packages",
	"trace.Decode":           "the schema-checking reader of explain's -trace files, which FuzzTraceDecode fuzzes",
}

// reachRoots are the trees whose non-test files count as references.
// internal/commtest exists for tests, so its own names are not checked.
var reachRoots = []string{"internal", "cmd", "examples", "bench/goalbench"}

func TestEveryExportedNameIsReached(t *testing.T) {
	t.Parallel()

	type name struct{ pkg, ident string } // pkg is the import path
	type file struct {
		pkg string
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgNames := map[string]string{} // import path -> package name
	for _, root := range reachRoots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := "repro/" + filepath.ToSlash(filepath.Dir(p))
			pkgNames[pkg] = f.Name.Name
			files = append(files, file{pkg, f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	declared := map[name]token.Pos{}
	used := map[name]bool{}
	for _, f := range files {
		checked := strings.HasPrefix(f.pkg, "repro/internal/") && f.pkg != "repro/internal/commtest"
		decls := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident) {
			decls[id] = true
			if checked && id.IsExported() {
				declared[name{f.pkg, id.Name}] = id.Pos()
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[d.Name] = true
				if d.Recv == nil {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local, ok := pkgNames[p]
			if !ok {
				local = path.Base(p)
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[name{p, n.Sel.Name}] = true
						return false
					}
				}
				// A field or method name is not a package-level name.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				// Neither are field and parameter names.
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				if !decls[n] {
					used[name{f.pkg, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var unreached []string
	for n, pos := range declared {
		key := strings.TrimPrefix(n.pkg, "repro/internal/") + "." + n.ident
		_, allowed := reachAllowed[key]
		switch {
		case used[n] && allowed:
			unreached = append(unreached, key+" is reached now; drop it from reachAllowed")
		case !used[n] && !allowed:
			unreached = append(unreached, fset.Position(pos).String()+": "+key+" is referenced by no non-test file; delete it, or give it a caller or a reason in reachAllowed")
		}
	}
	for key := range reachAllowed {
		pkg, ident, _ := strings.Cut(key, ".")
		if _, ok := declared[name{"repro/internal/" + pkg, ident}]; !ok {
			unreached = append(unreached, key+" is gone; drop it from reachAllowed")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Error(u)
	}
}
