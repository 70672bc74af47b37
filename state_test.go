package hades_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stateAllowlist holds the struct fields under internal/ that no code
// reads and that stay anyway. One reason each; at most maxStateAllowed
// entries.
var stateAllowlist = map[string]string{
	"metrics.Options.Now":         "bench/layers/kernel.go sets it",
	"netsim.Message.Size":         "the size argument of Send, whose signature bench/layers/kernel.go pins until ROADMAP item 1(b)",
	"simkern.Processor.name":      "the name argument of AddProcessor, whose signature bench/layers pins",
	"replication.ckptRecord.View": "storage.Write encodes it by reflection; the record is recovery data for ROADMAP item 6",
}

const maxStateAllowed = 4

// TestOnlyStateSomethingReads holds the state of internal/ to what
// something reads. Every field of a struct type declared in a non-test
// file under internal/ must be read somewhere: by non-test code, a test,
// an Example, cmd/, examples/ or bench/ (a module of its own, loaded
// separately). The tree is type-checked from source against the export
// data go list reports, so a use is matched to the field it selects,
// through promotion and instantiation. What counts as a write, and which
// fields are exempt, is unreadFields'.
func TestOnlyStateSomethingReads(t *testing.T) {
	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(stateAllowlist) > maxStateAllowed {
		t.Errorf("stateAllowlist has %d entries, at most %d", len(stateAllowlist), maxStateAllowed)
	}
	offenders, stale := unreadFields(tree.fset, tree.pkgs, stateAllowlist)
	if len(offenders) > 0 {
		t.Errorf("%d struct fields under internal/ that nothing reads:\n\t%s\n"+
			"for each: delete it with the code that only maintains it, give it a reader in the same change, "+
			"or add it to stateAllowlist with the reason it stays",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
	for _, k := range stale {
		t.Errorf("stale stateAllowlist entry %s: the field is gone, exempt, or something now reads it; remove the entry", k)
	}
}

// typedPkg is one package type-checked from source.
type typedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typedTree type-checks the root module and bench/ (a module of its own)
// once per test binary; the names and state guards both read it.
var typedTree = sync.OnceValues(func() (typedLoad, error) {
	fset := token.NewFileSet()
	var pkgs []typedPkg
	for _, dir := range []string{".", "bench"} {
		ps, err := loadTypedPackages(fset, dir)
		if err != nil {
			return typedLoad{}, err
		}
		pkgs = append(pkgs, ps...)
	}
	return typedLoad{fset, pkgs}, nil
})

type typedLoad struct {
	fset *token.FileSet
	pkgs []typedPkg
}

// listedPkg is the part of go list -json's output the loader reads.
type listedPkg struct {
	Dir, ImportPath, ForTest, Export string
	GoFiles                          []string
	ImportMap                        map[string]string
	Module                           *struct{ Main bool }
	Error                            *struct{ Err string }
}

// loadTypedPackages type-checks every package of the module in dir, test
// variants included, each once: a package with in-package tests is
// checked as its test variant, which holds its non-test files too. File
// names are slash paths relative to the working directory.
func loadTypedPackages(fset *token.FileSet, dir string) ([]typedPkg, error) {
	out, err := exec.Command("go", "list", "-C", dir, "-e", "-test", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -C %s: %v", dir, err)
	}
	var listed []*listedPkg
	byID := map[string]*listedPkg{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list -C %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		listed = append(listed, p)
		byID[p.ImportPath] = p
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var pkgs []typedPkg
	for _, p := range listed {
		path, variant, _ := strings.Cut(p.ImportPath, " [")
		switch {
		case p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test"):
			continue
		case variant == "" && byID[path+" ["+path+".test]"] != nil:
			continue // checked as its test variant
		case variant != "" && path != p.ForTest && path != p.ForTest+"_test":
			continue // a dependency rebuilt for another package's tests
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			rel, err := filepath.Rel(wd, filepath.Join(p.Dir, name))
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, filepath.ToSlash(rel), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if id := p.ImportMap[path]; id != "" {
				path = id
			}
			dep := byID[path]
			if dep == nil || dep.Export == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(dep.Export)
		})
		info := newTypesInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, typedPkg{pkg, files, info})
	}
	return pkgs, nil
}

// checkSource type-checks one in-memory package from its files (name ->
// source), resolving imports through imp.
func checkSource(fset *token.FileSet, path string, srcs map[string]string, imp types.Importer) (typedPkg, error) {
	var files []*ast.File
	for _, name := range slices.Sorted(maps.Keys(srcs)) {
		f, err := parser.ParseFile(fset, name, srcs[name], 0)
		if err != nil {
			return typedPkg{}, err
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return typedPkg{pkg, files, info}, err
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// unreadFields returns, as "pkg.Type.field file:line", each field of a
// struct type declared in a non-test file under internal/ that no package
// in pkgs reads and the allowlist does not hold, and the allowlist keys
// that name no such field.
//
// A selector x.f writes f when it is assigned (=, op=, ++, --, a range
// key or value), when it is the first argument of delete or clear, when
// it is append's first argument in x.f = append(x.f, ...), and when an
// element or field stored inside it is written (x.f[i] = v; x.f.g = v
// with f a struct value). A keyed or positional composite-literal entry
// writes. Every other selector reads, &x.f and x.f.M() included. A
// promoted field is charged to the struct that declares it, and a use
// through promotion reads each embedded field on the way. A generic
// struct's fields count by its origin type. Exempt are fields with a
// struct tag (an encoder reads them) and every field of a struct type
// that non-test code uses as a map key or compares with == or !=
// (equality reads them all, so a field there tells keys apart). A test
// comparing whole values reads no field: it passes the same without it.
func unreadFields(fset *token.FileSet, pkgs []typedPkg, allow map[string]string) (offenders, stale []string) {
	declared := map[string]string{} // field key -> file:line
	read := map[string]bool{}
	exempt := map[string]bool{} // field keys, and type keys whose every field is exempt

	for _, p := range pkgs {
		for _, f := range p.files {
			if !strings.HasPrefix(fset.Position(f.Pos()).Filename, "internal/") || isTestFile(fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					return true
				}
				st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				owner := p.info.Defs[ts.Name].Pkg().Name() + "." + ts.Name.Name
				for i := range st.NumFields() {
					fld := st.Field(i)
					if fld.Name() == "_" {
						continue
					}
					pos := fset.Position(fld.Pos())
					declared[owner+"."+fld.Name()] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if st.Tag(i) != "" {
						exempt[owner+"."+fld.Name()] = true
					}
				}
				return true
			})
		}
	}

	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch u := types.Unalias(t).Underlying().(type) {
		case *types.Array:
			compared(u.Elem())
		case *types.Struct:
			if k := typeKey(t); k != "" {
				if exempt[k] {
					return
				}
				exempt[k] = true
			}
			for i := range u.NumFields() {
				compared(u.Field(i).Type())
			}
		}
	}

	for _, p := range pkgs {
		writes := map[ast.Expr]bool{}
		var write func(e ast.Expr)
		write = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				write(e.X)
			case *ast.SelectorExpr:
				if p.info.Selections[e] == nil {
					return
				}
				writes[e] = true
				if _, isStruct := p.info.TypeOf(e.X).Underlying().(*types.Struct); isStruct {
					write(e.X)
				}
			}
		}
		builtin := func(call *ast.CallExpr, name string) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			b, ok := p.info.Uses[id].(*types.Builtin)
			return ok && b.Name() == name
		}
		for _, f := range p.files {
			inTest := isTestFile(fset, f.Pos())
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						write(lhs)
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && builtin(call, "append") &&
							len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
							write(call.Args[0])
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						if n.Key != nil {
							write(n.Key)
						}
						if n.Value != nil {
							write(n.Value)
						}
					}
				case *ast.CallExpr:
					if (builtin(n, "delete") || builtin(n, "clear")) && len(n.Args) > 0 {
						write(n.Args[0])
					}
				case *ast.BinaryExpr:
					if !inTest && (n.Op == token.EQL || n.Op == token.NEQ) {
						compared(p.info.TypeOf(n.X))
					}
				}
				return true
			})
		}
		for e, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok && !isTestFile(fset, e.Pos()) {
				compared(m.Key())
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := p.info.Selections[sel]
				if s == nil {
					return true
				}
				t := s.Recv()
				for i, idx := range s.Index() {
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok || (i == len(s.Index())-1 && s.Kind() != types.FieldVal) {
						break
					}
					fld := st.Field(idx)
					if i < len(s.Index())-1 || !writes[sel] {
						read[typeKey(t)+"."+fld.Name()] = true
					}
					t = fld.Type()
				}
				return true
			})
		}
	}

	for key, pos := range declared {
		owner := key[:strings.LastIndex(key, ".")]
		used := read[key] || exempt[key] || exempt[owner]
		switch {
		case used && allow[key] != "":
			stale = append(stale, key)
		case !used && allow[key] == "":
			offenders = append(offenders, key+" "+pos)
		}
	}
	for k := range allow {
		if declared[k] == "" {
			stale = append(stale, k)
		}
	}
	sort.Strings(offenders)
	sort.Strings(stale)
	return offenders, stale
}

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// typeKey names a defined type as "pkg.Type", a generic one by its
// origin; "" for any other type.
func typeKey(t types.Type) string {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Origin().Obj().Name()
}

// TestFieldUseClassification runs the field guard over one import-free
// package: each kind of write leaves its field unread, each kind of read
// counts, a promoted field is charged to the struct declaring it (and a
// write through promotion reads the embedded field), a generic struct
// counts by its origin, tagged fields and the fields of map keys and
// ==-compared structs are exempt (but not those of structs only a test
// compares), and an allowlist entry is taken while one naming a read or
// missing field is stale.
func TestFieldUseClassification(t *testing.T) {
	const src = `package lib

type counter int

func (counter) M() {}

type S struct {
	assigned, incremented, decremented, added, keyed int
	appended, indexed                               []int
	deleted, cleared                                map[int]int
	inner                                           struct{ n int }
	copied, addressed                               int
	tested                                          bool
	called                                          counter
	Tagged                                          int ` + "`json:\"tagged\"`" + `
}

type Inner struct{ deep, unused int }

type Outer struct {
	Inner
	own int
}

type Shell struct{ Inner }

type Box[T any] struct{ val, spare T }

type Key struct{ a, b int }

type Pair struct{ x, y int }

type Probe struct{ v int }

func use(x *S, o *Outer, sh *Shell, m map[Key]int, p, q Pair) bool {
	*x = S{keyed: 1, Tagged: 2}
	x.assigned = 1
	x.incremented++
	x.decremented--
	x.added += 2
	x.appended = append(x.appended, 1)
	x.indexed[0] = 1
	delete(x.deleted, 1)
	clear(x.cleared)
	x.inner.n = 3
	y := x.copied
	if x.tested {
		y++
	}
	x.called.M()
	_ = &x.addressed
	o.deep = o.deep + y
	o.own = 1
	sh.unused = 2
	b := Box[int]{spare: 1}
	_ = b.val
	_ = m[Key{1, 2}]
	return p == q
}
`
	const testSrc = `package lib

func sameProbe(a, b Probe) bool { return a == b && a != Probe{} }
`
	fset := token.NewFileSet()
	p, err := checkSource(fset, "hades/internal/lib", map[string]string{"internal/lib/lib.go": src, "internal/lib/lib_test.go": testSrc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []typedPkg{p}
	writes := []string{
		"lib.Box.spare", "lib.Inner.unused", "lib.Outer.own", "lib.Probe.v",
		"lib.S.added", "lib.S.appended", "lib.S.assigned", "lib.S.cleared", "lib.S.decremented",
		"lib.S.deleted", "lib.S.incremented", "lib.S.indexed", "lib.S.inner", "lib.S.keyed",
	}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string // offender keys, then "stale:" + key
	}{
		{name: "each rule", want: writes},
		{
			name:  "allowlist",
			allow: map[string]string{"lib.S.assigned": "r", "lib.S.copied": "read", "lib.S.Tagged": "exempt", "lib.Gone.f": "deleted"},
			want: append(slices.DeleteFunc(slices.Clone(writes), func(k string) bool { return k == "lib.S.assigned" }),
				"stale:lib.Gone.f", "stale:lib.S.Tagged", "stale:lib.S.copied"),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offenders, stale := unreadFields(fset, pkgs, tc.allow)
			got := []string{}
			for _, o := range offenders {
				got = append(got, strings.Fields(o)[0])
			}
			for _, s := range stale {
				got = append(got, "stale:"+s)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %v\nwant %v", got, tc.want)
			}
		})
	}
}
