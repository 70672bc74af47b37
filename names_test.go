package hades_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// namesAllowlist holds the exported funcs and methods under internal/
// that no non-test file outside their package calls and that stay
// exported anyway: test hooks another package's tests need, and the
// stable-storage recovery surface. One reason each; at most
// maxNamesAllowed entries.
var namesAllowlist = map[string]string{
	"heug.Builder.Invoke":        "dispatcher tests build §3.1 invocation units (Inv_EU); no builtin declares one",
	"pubsub.Plane.CheckComplete": "the per-topic delivery audit scenario's TestRegressCorpus runs",
	"scenario.Builtin":           "cmd/hades golden tests and cluster verify tests load builtins by name",
	"simkern.Processor.IRQTime":  "netsim tests measure the receive-path interrupt cost",
	"storage.Store.Crash":        "stable-storage surface: replication tests crash a replica's store; recovery is ROADMAP item 6",
	"storage.Store.Read":         "stable-storage surface: replication tests read a persisted checkpoint back; recovery is ROADMAP item 6",
	"txn.Client.Begin":           "interactive transaction API (Begin/Write/Read/Commit) cluster txn tests drive",
	"txn.Client.Commit":          "interactive transaction API (Begin/Write/Read/Commit) cluster txn tests drive",
	"txn.Client.Write":           "interactive transaction API (Begin/Write/Read/Commit) cluster txn tests drive",
	"txn.Txn.Read":               "interactive transaction API (Begin/Write/Read/Commit) cluster txn tests drive",
}

const maxNamesAllowed = 10

// TestOnlyNamesSomethingCalls holds the exported surface of internal/ to
// what something calls. Every exported func, and every exported method of
// an exported type, must be used by a non-test file outside its package
// (bench/ counts: it consumes internal/ as a separate module), be reached
// from an Example, implement an interface, or be allowlisted with a
// reason. Uses are matched by go/types to the declaring type, so a method
// does not pass on another type's same-named method. Types, consts and
// vars are out of scope.
func TestOnlyNamesSomethingCalls(t *testing.T) {
	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(namesAllowlist) > maxNamesAllowed {
		t.Errorf("namesAllowlist has %d entries, at most %d", len(namesAllowlist), maxNamesAllowed)
	}
	offenders, stale := uncalledNames(tree.fset, tree.pkgs, namesAllowlist)
	if len(offenders) > 0 {
		t.Errorf("%d exported names under internal/ that nothing outside their package's tests calls:\n\t%s\n"+
			"for each: delete it (with the tests of that name), unexport it if its callers are all in its package, "+
			"or add it to namesAllowlist with the reason it stays",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
	for _, k := range stale {
		t.Errorf("stale namesAllowlist entry %s: the name is gone or something now calls it; remove the entry", k)
	}
}

// TestBenchModuleVets compiles bench/, a module of its own that go test
// ./... never builds, so a change that breaks what the benchmark uses of
// the program fails here, in the same change.
func TestBenchModuleVets(t *testing.T) {
	out, err := exec.Command("go", "vet", "-C", "bench", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}

// uncalledNames returns, as "pkg.Name file:line" or "pkg.Recv.Name
// file:line", each exported func, and each exported method of an exported
// type, declared in a non-test file under internal/ that nothing uses and
// the allowlist does not hold, and the allowlist keys that name nothing
// declared or something used.
//
// A use is an identifier go/types resolves to the func, in a non-test
// file of another package or anywhere in an Example's body. It is charged
// to the declaring type: a promoted method to the embedded type, a generic
// one to its origin; a method value or expression counts like a call. A
// method also counts when it is in an interface's method set that a type's
// method set implements; see implementing.
func uncalledNames(fset *token.FileSet, pkgs []typedPkg, allow map[string]string) (offenders, stale []string) {
	type decl struct{ shown, pos string }
	declared := map[string]decl{} // by funcKey
	shown := map[string]bool{}
	used := map[string]bool{}
	for _, p := range pkgs {
		var examples []*ast.BlockStmt
		for _, f := range p.files {
			inTest := isTestFile(fset, f.Pos())
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				switch {
				case !ok:
				case inTest && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example"):
					examples = append(examples, fn.Body)
				case !inTest && fn.Name.IsExported() && strings.HasPrefix(fset.Position(f.Pos()).Filename, "internal/"):
					if key, name := funcKey(p.info.Defs[fn.Name].(*types.Func)); name != "" {
						pos := fset.Position(fn.Pos())
						declared[key] = decl{name, fmt.Sprintf("%s:%d", pos.Filename, pos.Line)}
						shown[name] = true
					}
				}
			}
		}
		inExample := func(id *ast.Ident) bool {
			return slices.ContainsFunc(examples, func(b *ast.BlockStmt) bool { return b.Pos() <= id.Pos() && id.Pos() < b.End() })
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			if (!isTestFile(fset, id.Pos()) && fn.Pkg().Path() != p.pkg.Path()) || inExample(id) {
				key, _ := funcKey(fn)
				used[key] = true
			}
		}
		for _, key := range implementing(fset, p) {
			used[key] = true
		}
	}

	for key, d := range declared {
		switch {
		case used[key] && allow[d.shown] != "":
			stale = append(stale, d.shown)
		case !used[key] && allow[d.shown] == "":
			offenders = append(offenders, d.shown+" "+d.pos)
		}
	}
	for k := range allow {
		if !shown[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(offenders)
	sort.Strings(stale)
	return offenders, stale
}

// funcKey names a func, or a method by its receiver's origin type, under
// its package path: the key uses are matched on. name is the same under
// the package name, as failures and the allowlist print it; both are ""
// for a method of an interface or of an unexported type.
func funcKey(fn *types.Func) (key, name string) {
	fn = fn.Origin()
	name = fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok || !n.Obj().Exported() || types.IsInterface(n) {
			return "", ""
		}
		name = n.Origin().Obj().Name() + "." + name
	}
	return fn.Pkg().Path() + "." + name, fn.Pkg().Name() + "." + name
}

// implementing returns the funcKeys of the methods p's view of the
// program reaches through an interface. p sees the types and interfaces
// declared in it and in the packages it imports, error, and the
// interface types its non-test code writes (type assertions on optional
// interfaces included). For each non-generic type of the module among
// them whose pointer method set implements one of those interfaces
// (types.Implements), every method of the interface is reached, at the
// type that declares it. A test file contributes neither a type nor an
// interface.
func implementing(fset *token.FileSet, p typedPkg) []string {
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	var named []*types.Named
	for _, pk := range append([]*types.Package{p.pkg}, p.pkg.Imports()...) {
		for _, name := range pk.Scope().Names() {
			tn, ok := pk.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || isTestFile(fset, tn.Pos()) {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue // unsafe.Pointer
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			} else if n.TypeParams().Len() == 0 && (pk.Path() == "hades" || strings.HasPrefix(pk.Path(), "hades/")) {
				named = append(named, n)
			}
		}
	}
	for e, tv := range p.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && !isTestFile(fset, e.Pos()) {
			ifaces[it] = true
		}
	}
	var keys []string
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for it := range ifaces {
			if it.NumMethods() == 0 || mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for m := range it.Methods() {
				if key, _ := funcKey(mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func)); key != "" {
					keys = append(keys, key)
				}
			}
		}
	}
	return keys
}

// TestUncalledNamesGuard runs the guard over small type-checked packages.
// Flagged: an uncalled method, a func only its own tests reach, a func and
// a method only another package's tests reach, and B.Add while only A.Add
// is called. Not flagged: a method an interface names, one that satisfies
// error, one reached only through an optional-interface assertion, a func
// reached from an Example, one selected through a renamed import, a
// promoted call, a method value and a generic receiver. An allowlist entry
// is taken, and one naming something gone or called is stale.
func TestUncalledNamesGuard(t *testing.T) {
	lib := map[string]string{"internal/lib/lib.go": `package lib
type Net struct{}
func (n *Net) Send() {}
func (n *Net) Broadcast2() {}
func (n *Net) Deliver() {}
func (n *Net) Probe() {}
func (n *Net) Flush() {}
func (n *Net) Crash() {}
func (n *Net) Error() string { return "" }
func New() *Net { return &Net{} }
func Max(a, b int) int { return a }
func Shown() {}
func Hook() {}
type A struct{}
func (A) Add() {}
type B struct{}
func (B) Add() {}
type Base struct{}
func (Base) Ping() {}
type Wrap struct{ Base }
type Box[T any] struct{}
func (Box[T]) Get() {}
type private struct{}
func (private) Loose() {}
`, "internal/lib/lib_test.go": `package lib
func TestMax() { _ = Max(1, 2); New().Broadcast2() }
func ExampleShown() { Shown() }
`}
	const user = `package main
import h "hades/internal/lib"
type deliverer interface{ Deliver() }
var _ deliverer = h.New()
func main() {
	n := h.New()
	n.Send()
	if p, ok := any(n).(interface{ Probe() }); ok {
		p.Probe()
	}
	f := n.Flush
	f()
	h.A{}.Add()
	h.Wrap{}.Ping()
	h.Box[int]{}.Get()
}
`
	other := map[string]string{"internal/other/other_test.go": `package other
import "hades/internal/lib"
func TestHook() { lib.Hook(); lib.New().Crash() }
`}
	withoutExample := map[string]string{"internal/lib/lib.go": lib["internal/lib/lib.go"],
		"internal/lib/lib_test.go": strings.Replace(lib["internal/lib/lib_test.go"], "func ExampleShown", "func TestShown", 1)}
	withoutInterface := strings.NewReplacer("Deliver()", "Send()", "Probe()", "Send()").Replace(user)
	flagged := []string{"lib.B.Add", "lib.Hook", "lib.Max", "lib.Net.Broadcast2", "lib.Net.Crash"}
	for _, tc := range []struct {
		name  string
		lib   map[string]string
		user  string
		allow map[string]string
		want  []string // offender keys, then "stale:" + key
	}{
		{name: "each rule", lib: lib, user: user, want: flagged},
		{
			name: "no Example, no interface",
			lib:  withoutExample,
			user: withoutInterface,
			want: []string{"lib.B.Add", "lib.Hook", "lib.Max", "lib.Net.Broadcast2", "lib.Net.Crash", "lib.Net.Deliver", "lib.Net.Probe", "lib.Shown"},
		},
		{
			name:  "allowlisted test hook",
			lib:   lib,
			user:  user,
			allow: map[string]string{"lib.Hook": "other's tests drive it"},
			want:  slices.DeleteFunc(slices.Clone(flagged), func(k string) bool { return k == "lib.Hook" }),
		},
		{
			name:  "stale allowlist entries",
			lib:   lib,
			user:  user,
			allow: map[string]string{"lib.Hook": "r", "lib.Max": "r", "lib.Net.Broadcast2": "r", "lib.New": "called", "lib.Gone": "deleted"},
			want:  []string{"lib.B.Add", "lib.Net.Crash", "stale:lib.Gone", "stale:lib.New"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			imp := fixtureImporter{}
			var pkgs []typedPkg
			for _, p := range []struct {
				path string
				srcs map[string]string
			}{
				{"hades/internal/lib", tc.lib},
				{"hades/cmd/app", map[string]string{"cmd/app/main.go": tc.user}},
				{"hades/internal/other", other},
			} {
				tp, err := checkSource(fset, p.path, p.srcs, imp)
				if err != nil {
					t.Fatal(err)
				}
				imp[p.path] = tp.pkg
				pkgs = append(pkgs, tp)
			}
			offenders, stale := uncalledNames(fset, pkgs, tc.allow)
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

// fixtureImporter resolves a fixture's imports to the packages checked
// before it.
type fixtureImporter map[string]*types.Package

func (m fixtureImporter) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("fixture has no package %s", path)
}
