// The reach gate: every func, method, type, var and const declared in a
// non-test file under internal/ or cmd/ must be used by some non-test
// file, so a name that only its own tests call cannot pile up unnoticed.
// The gate type-checks the program with go/types, so it sees methods and
// unexported names as well as exported package-level ones. A method also
// counts as used when it implements a method of an interface type that
// the program or the standard library it imports declares (so Step,
// String and ServeHTTP pass), and a use through an instantiation of a
// generic type counts for the generic method.
//
// Struct fields have two rules. Every field must be read by some non-test
// file, and every exported field of an exported struct, a knob, must also
// be set by one. A read is any use but the target of = or := and a
// composite literal's key; those, and op-assignments, ++, --, taking the
// address and unkeyed literals, set a field. A json tag counts as a read
// and a set by the codec, embedded fields are exempt, and a use through
// an instantiation counts for the generic field.
//
// A name or field with a reason to stay unreached is listed in
// reachAllowed with that reason.
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
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed lists the declarations under internal/ and cmd/ that no
// non-test file uses, and the fields no non-test file reads or, for a
// knob, sets, each with the reason it stays. A key is the package's path
// below internal/ (or from the module root, for cmd/), then the name,
// then a method's or a field's name: "trace.Record.View".
var reachAllowed = map[string]string{
	"chaos.FormatLog":              "the canonical fault-log text the chaos determinism tests compare",
	"chaos.Injector.Log":           "the fault log a seeded injector fired, which the chaos determinism tests pin run against run",
	"dialect.Identity":             "the dialect that changes nothing, which the goal packages' candidate tests speak",
	"dist.CoordinatorConfig.Now":   "the clock the lease tests fake to expire leases without waiting",
	"dist.FollowOptions.Backoff":   "the reconnect delay the chaos watch test shortens",
	"dist.Worker.Registry":         "the registry the version-skew test swaps in to see a worker refuse a plan",
	"dist.Worker.Retries":          "the retry budget the chaos tests raise to 200 so every scheduled fault fires",
	"enumerate.FST":                "the paper's generic user class, every FST over a space, enumerated by the universal-user property tests",
	"enumerate.SymbolCodec.In":     symbolCodec,
	"enumerate.SymbolCodec.NumIn":  symbolCodec,
	"enumerate.SymbolCodec.NumOut": symbolCodec,
	"enumerate.SymbolCodec.Out":    symbolCodec,
	"fst.Space.Index":              "the inverse of Space.At, against which the enumeration's bijection tests check every index",
	"goals/fsm.Goal.Feasible":      "the machine analysis's feasibility verdict: an infeasible machine falls outside Theorem 1",
	"obs.LevelError":               "completes the log levels that Logger filters on",
	"sensing.Const":                "the constant sense, a fixture for user and sweep tests in several packages",
	"trace.Decode":                 "the schema-checking reader of explain's -trace files, which FuzzTraceDecode fuzzes",
	"trace.Record.JudgeCompact":    "re-judges a decoded trace offline, the reference each explain trace's verdict is checked against",
	"trace.Record.View":            "rebuilds a decoded trace's view, over which sensing replays offline against the recorded run",
	"universal.Attempt.Budget":     attemptLog,
	"universal.Attempt.Halted":     attemptLog,
	"universal.Attempt.Index":      attemptLog,
	"universal.Attempt.Rounds":     attemptLog,
	"universal.Attempt.Verdict":    attemptLog,
}

const (
	symbolCodec = "the codec of the allow-listed enumerate.FST, which its tests set"
	attemptLog  = "the finite runner's attempt log, which the Levin-schedule tests pin"
)

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

	// A field named as the target of = or := or as a composite literal's
	// key is set and not read; one that an op-assignment, ++, -- or & takes
	// is read and set. Every other use reads it.
	setOnly := map[*ast.Ident]bool{}
	readSet := map[*ast.Ident]bool{}
	read := map[*types.Var]bool{}
	set := map[*types.Var]bool{}
	sel := func(e ast.Expr) *ast.Ident {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return s.Sel
		}
		return nil
	}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id := sel(lhs); id != nil && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
							setOnly[id] = true
						} else if id != nil {
							readSet[id] = true
						}
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							if id := sel(e); id != nil {
								setOnly[id] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if id := sel(n.X); id != nil {
						readSet[id] = true
					}
				case *ast.UnaryExpr:
					if id := sel(n.X); id != nil && n.Op == token.AND {
						readSet[id] = true
					}
				case *ast.CompositeLit:
					t := info.Types[n].Type.Underlying()
					if p, isPtr := t.(*types.Pointer); isPtr { // an elided &T{...}
						t = p.Elem().Underlying()
					}
					st, ok := t.(*types.Struct)
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); ok && isKV {
							setOnly[kv.Key.(*ast.Ident)] = true
						} else if ok {
							set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	for id, obj := range info.Uses {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			continue
		}
		v = v.Origin()
		read[v] = read[v] || !setOnly[id]
		set[v] = set[v] || setOnly[id] || readSet[id]
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
	// for tests) and cmd/ are checked, each under its key: what a
	// declaration lacks is why it is reported.
	declared := map[string]types.Object{}
	lacks := map[string][]string{}
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
			named := map[string]types.Object{name: obj}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				if nt, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < nt.NumMethods(); i++ {
						m := nt.Method(i)
						named[name+"."+m.Name()] = m
					}
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if f.Embedded() {
							continue
						}
						key := prefix + name + "." + f.Name()
						declared[key] = f
						if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
							continue // the codec reads and sets it
						}
						if !read[f] {
							lacks[key] = append(lacks[key], "is read by no non-test file; delete it, or read it or give it a reason in reachAllowed")
						}
						if tn.Exported() && f.Exported() && !set[f] {
							lacks[key] = append(lacks[key], "is set by no non-test file; delete it, or set it or give it a reason in reachAllowed")
						}
					}
				}
			}
			for n, o := range named {
				declared[prefix+n] = o
				if !used[o] {
					lacks[prefix+n] = []string{"is used by no non-test file; delete it, or give it a caller or a reason in reachAllowed"}
				}
			}
		}
	}

	var problems []string
	for key, obj := range declared {
		_, ok := allowed[key]
		switch {
		case len(lacks[key]) == 0 && ok:
			problems = append(problems, key+" is reached now; drop it from reachAllowed")
		case !ok:
			for _, l := range lacks[key] {
				problems = append(problems, fset.Position(obj.Pos()).String()+": "+key+" "+l)
			}
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

import (
	"encoding/json"
	"fmt"
)

type Shape interface{ Area() int }

type Square struct {
	n     int
	memo  int
	grown int
}

func (s Square) Area() int      { return s.n * s.n }
func (s Square) String() string { return fmt.Sprint(s.n) }
func (s Square) Side() int      { return s.n }
func (s Square) Kept() int      { return s.n }
func (s Square) Called() int    { return s.n }
func (s *Square) Grow()         { s.memo = s.n; s.grown++ }

type Box[T any] struct{ V T }

func (b *Box[T]) Get() T { return b.V }

type Options struct{ Limit int }

type Note struct {
	Text string ` + "`json:\"text\"`" + `
}

func Total(o Options, shapes ...Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	if o.Limit > 0 && n > o.Limit {
		return o.Limit
	}
	return n
}

func Encode(n Note) ([]byte, error) { return json.Marshal(n) }
`,
		"internal/shape/shape_test.go": `package shape

import "testing"

func TestSide(t *testing.T) { _ = Square{2}.Side() + Total(Options{Limit: 1}) }
`,
		"cmd/demo/main.go": `package main

import "repro/internal/shape"

func main() {
	boxes := []*shape.Box[int]{{V: 1}}
	var sq shape.Square
	sq.Grow()
	_ = boxes[0].Get() + shape.Total(shape.Options{}, sq) + sq.Called()
	_, _ = shape.Encode(shape.Note{})
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
	// Square.grown is read by ++, Box.V is set only in an elided
	// &Box[int]{...} and Note.Text only by the codec, so none of them is
	// reported.
	file := filepath.Join(dir, "internal/shape/shape.go")
	want := []string{
		"shape.Gone is gone; drop it from reachAllowed",
		"shape.Square.Called is reached now; drop it from reachAllowed",
		file + ":18:17: shape.Square.Side is used by no non-test file; delete it, or give it a caller or a reason in reachAllowed",
		file + ":12:2: shape.Square.memo is read by no non-test file; delete it, or read it or give it a reason in reachAllowed",
		file + ":27:22: shape.Options.Limit is set by no non-test file; delete it, or set it or give it a reason in reachAllowed",
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("reported:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
