// The reach gate: every func, method, type, var and const declared in a
// non-test file under internal/ or cmd/ must be used by some non-test
// file, so a name that only its own tests call cannot pile up unnoticed.
// The gate type-checks the program with go/types, so it sees methods and
// unexported names as well as exported package-level ones. A method also
// counts as used when it implements a method of an interface type that
// the program or the standard library it imports declares (so Step,
// String and ServeHTTP pass), and a use through an instantiation of a
// generic type counts for the generic method. A name with a reason to
// stay unreached is listed in reachAllowed with that reason.
package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed lists the declarations under internal/ and cmd/ that no
// non-test file uses, each with the reason it stays. A key is the
// package's path below internal/ (or from the module root, for cmd/),
// then the name, then a method's name: "trace.Record.View".
var reachAllowed = map[string]string{
	"chaos.FormatLog":           "the canonical fault-log text the chaos determinism tests compare",
	"chaos.Injector.Log":        "the fault log a seeded injector fired, which the chaos determinism tests pin run against run",
	"dialect.Identity":          "the dialect that changes nothing, which the goal packages' candidate tests speak",
	"enumerate.FST":             "the paper's generic user class, every FST over a space, enumerated by the universal-user property tests",
	"fst.Space.Index":           "the inverse of Space.At, against which the enumeration's bijection tests check every index",
	"goal.UnacceptableCount":    "the recorded-history referee's progress count, beside CompactAchieved and LastUnacceptable",
	"goal.WithReferee":          "derived referees; the root alloc pins judge a goal through one",
	"goals/fsm.Goal.Feasible":   "the machine analysis's feasibility verdict: an infeasible machine falls outside Theorem 1",
	"obs.LevelError":            "completes the log levels that Logger filters on",
	"sensing.Const":             "the constant sense, a fixture for user and sweep tests in several packages",
	"trace.Decode":              "the schema-checking reader of explain's -trace files, which FuzzTraceDecode fuzzes",
	"trace.Record.JudgeCompact": "re-judges a decoded trace offline, the reference each explain trace's verdict is checked against",
	"trace.Record.View":         "rebuilds a decoded trace's view, over which sensing replays offline against the recorded run",
}

// reachRoots are the trees whose non-test files count as uses.
var reachRoots = []string{"internal", "cmd", "examples", "bench/goalbench"}

func TestEveryExportedNameIsReached(t *testing.T) {
	t.Parallel()
	problems, err := unreached(".", reachAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// unreached type-checks the program under dir, whose module path is
// repro, and returns one line for each declaration that no non-test file
// uses and allowed does not list, and for each entry of allowed that is
// used or gone.
func unreached(dir string, allowed map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	std := map[string]bool{}          // imported paths outside the module
	for _, root := range reachRoots {
		err := filepath.WalkDir(filepath.Join(dir, root), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok || err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			pkg := "repro/" + filepath.ToSlash(rel)
			files[pkg] = append(files[pkg], f)
			for _, im := range f.Imports {
				if path, _ := strconv.Unquote(im.Path.Value); !strings.HasPrefix(path, "repro/") {
					std[path] = true
				}
			}
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}

	// The standard library comes from the export data the go command
	// builds, found in one go list rather than one per package.
	exports := map[string]string{}
	if len(std) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, sortedKeys(std)...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, " ")
			exports[path] = file
		}
	}
	stdlib := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if !strings.HasPrefix(path, "repro/") {
			return stdlib.Import(path)
		}
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		if files[path] == nil {
			return nil, fmt.Errorf("no package %s", path)
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		pkgs[path] = p
		return p, err
	}
	for _, path := range sortedKeys(files) {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}

	// A method's receiver names its type without using it.
	receivers := map[*ast.Ident]bool{}
	for _, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if !receivers[id] {
			used[obj] = true
		}
	}

	// Every method through which a type of the program implements an
	// interface with methods counts as used.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !generic(tn) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collect(q)
		}
	}
	for _, p := range pkgs {
		collect(p)
	}
	// errors.Is and errors.As call Unwrap through an interface they do
	// not declare at package level.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces = append(ifaces, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || generic(tn) || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					// The method may be promoted from an embedded field.
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin()] = true
					}
				}
			}
		}
	}

	// Declarations under internal/ (but internal/commtest, which exists
	// for tests) and cmd/ are checked, each under its key.
	declared := map[string]types.Object{}
	for path, p := range pkgs {
		rel := strings.TrimPrefix(path, "repro/")
		if !strings.HasPrefix(rel, "cmd/") && (!strings.HasPrefix(rel, "internal/") || rel == "internal/commtest") {
			continue
		}
		prefix := strings.TrimPrefix(rel, "internal/") + "."
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if name == "main" && p.Name() == "main" {
				continue
			}
			declared[prefix+name] = obj
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						m := named.Method(i)
						declared[prefix+name+"."+m.Name()] = m
					}
				}
			}
		}
	}

	var problems []string
	for key, obj := range declared {
		_, ok := allowed[key]
		switch {
		case used[obj] && ok:
			problems = append(problems, key+" is reached now; drop it from reachAllowed")
		case !used[obj] && !ok:
			problems = append(problems, fset.Position(obj.Pos()).String()+": "+key+" is used by no non-test file; delete it, or give it a caller or a reason in reachAllowed")
		}
	}
	for key := range allowed {
		if _, ok := declared[key]; !ok {
			problems = append(problems, key+" is gone; drop it from reachAllowed")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// generic reports whether tn names a generic type, which Implements
// cannot judge before instantiation.
func generic(tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestReachGateCatchesPlantedNames runs the gate's check over a tiny
// program in which each rule has something to catch or to pass.
func TestReachGateCatchesPlantedNames(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for name, src := range map[string]string{
		"internal/shape/shape.go": `package shape

import "fmt"

type Shape interface{ Area() int }

type Square struct{ n int }

func (s Square) Area() int      { return s.n * s.n }
func (s Square) String() string { return fmt.Sprint(s.n) }
func (s Square) Side() int      { return s.n }
func (s Square) Kept() int      { return s.n }
func (s Square) Called() int    { return s.n }

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func Total(shapes ...Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}
`,
		"internal/shape/shape_test.go": `package shape

import "testing"

func TestSide(t *testing.T) { _ = Square{2}.Side() }
`,
		"cmd/demo/main.go": `package main

import "repro/internal/shape"

func main() {
	var b shape.Box[int]
	_ = b.Get() + shape.Total(shape.Square{}) + shape.Square{}.Called()
}
`,
	} {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unreached(dir, map[string]string{
		"shape.Square.Kept":   "unreached, with a reason",
		"shape.Square.Called": "reached, so the entry is stale",
		"shape.Gone":          "no such name",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"shape.Gone is gone; drop it from reachAllowed",
		"shape.Square.Called is reached now; drop it from reachAllowed",
		filepath.Join(dir, "internal/shape/shape.go") + ":11:17: shape.Square.Side is used by no non-test file; delete it, or give it a caller or a reason in reachAllowed",
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("reported:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
