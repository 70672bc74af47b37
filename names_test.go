package hades_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
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
	"cluster.App.Raw":               "dispatcher tests set RejectOnArrivalViolation on the raw dispatcher app",
	"heug.Builder.Invoke":           "dispatcher tests build §3.1 invocation units (Inv_EU); no builtin declares one",
	"pubsub.Plane.CheckComplete":    "the per-topic delivery audit scenario's TestRegressCorpus runs",
	"scenario.Builtin":              "cmd/hades golden tests and cluster verify tests load builtins by name",
	"shard.Group.AuthoritativeNode": "cluster shard tests check which replica's apply log is authoritative",
	"simkern.Processor.IRQTime":     "netsim tests measure the receive-path interrupt cost",
	"storage.Store.Crashed":         "stable-storage recovery surface: safety code, wired in by ROADMAP item 6",
	"storage.Store.Recover":         "stable-storage recovery surface: safety code, wired in by ROADMAP item 6",
	"txn.Client.Commit":             "interactive transaction API (Begin/Write/Read/Commit) cluster txn tests drive",
	"txn.Txn.Read":                  "interactive transaction API (Begin/Write/Read/Commit) cluster txn tests drive",
}

const maxNamesAllowed = 12

// TestOnlyNamesSomethingCalls holds the exported surface of internal/ to
// what something calls. Every exported func, and every exported method of
// an exported type, must be used by a non-test file outside its package
// (bench/ counts: it consumes internal/ as a separate module), be reached
// from an Example, implement an interface method, or be allowlisted with
// a reason. Types, consts and vars are out of scope.
func TestOnlyNamesSomethingCalls(t *testing.T) {
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			if top, _, _ := strings.Cut(filepath.ToSlash(p), "/"); p != "." &&
				top != "internal" && top != "cmd" && top != "examples" && top != "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(p), string(src)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(namesAllowlist) > maxNamesAllowed {
		t.Errorf("namesAllowlist has %d entries, at most %d", len(namesAllowlist), maxNamesAllowed)
	}
	offenders, stale, err := uncalledNames(files, namesAllowlist)
	if err != nil {
		t.Fatal(err)
	}
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

type srcFile struct{ path, src string }

// implicitMethods are satisfied for interfaces outside the module
// (fmt.Stringer, error, json.(Un)Marshaler, sort.Interface, heap.Interface).
var implicitMethods = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON", "Len", "Less", "Swap", "Push", "Pop"}

// uncalledNames returns, as "pkg.Name file:line" or "pkg.Recv.Name
// file:line", each exported func or method declared in a non-test file
// under internal/ that nothing uses and the allowlist does not hold, and
// the allowlist keys that name nothing declared or something used. Paths
// are slash-separated and relative to the module root; a directory's
// import path is "hades/" + its path.
func uncalledNames(files []srcFile, allow map[string]string) (offenders, stale []string, err error) {
	type decl struct {
		pkgPath, name, key, pos string
		method                  bool
	}
	var decls []decl
	funcUsed := map[string]bool{}             // "importpath.Name" selected from outside, or by an Example
	methodSel := map[string]map[string]bool{} // selector name -> import paths selecting it ("" for an Example)
	interfaceMethod := map[string]bool{}
	for _, m := range implicitMethods {
		interfaceMethod[m] = true
	}
	selectMethod := func(name, from string) {
		if methodSel[name] == nil {
			methodSel[name] = map[string]bool{}
		}
		methodSel[name][from] = true
	}

	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f.path, f.src, 0)
		if err != nil {
			return nil, nil, err
		}
		pkgPath := "hades"
		if dir := path.Dir(f.path); dir != "." {
			pkgPath += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range file.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		// uses records the selectors under n: through an import they use a
		// package-level func, otherwise a method or field of that name.
		// An Example's uses count from any package, its bare names too.
		uses := func(n ast.Node, example bool) {
			from := pkgPath
			if example {
				from = ""
			}
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
						funcUsed[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					selectMethod(n.Sel.Name, from)
				case *ast.Ident:
					if example {
						funcUsed[pkgPath+"."+n.Name] = true
					}
				}
				return true
			})
		}

		if strings.HasSuffix(f.path, "_test.go") {
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
					uses(fn.Body, true)
				}
			}
			continue
		}
		uses(file, false)
		ast.Inspect(file, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						interfaceMethod[name.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			pos := fset.Position(fn.Pos())
			at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			if fn.Recv == nil {
				decls = append(decls, decl{pkgPath, fn.Name.Name, file.Name.Name + "." + fn.Name.Name, at, false})
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				decls = append(decls, decl{pkgPath, fn.Name.Name, file.Name.Name + "." + id.Name + "." + fn.Name.Name, at, true})
			}
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := funcUsed[d.pkgPath+"."+d.name]
		if d.method {
			used = interfaceMethod[d.name]
			for from := range methodSel[d.name] {
				used = used || from != d.pkgPath
			}
		}
		switch {
		case used && allow[d.key] != "":
			stale = append(stale, d.key)
		case !used && allow[d.key] == "":
			offenders = append(offenders, d.key+" "+d.pos)
		}
	}
	for k := range allow {
		if !declared[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(offenders)
	sort.Strings(stale)
	return offenders, stale, nil
}

// TestUncalledNamesGuard runs the guard over small fixtures: an uncalled
// method and a func only its own tests reach are flagged; a method an
// interface names, a func reached from an Example and a func selected
// through a renamed import are not; an allowlist entry is taken, and one
// naming something gone or called is stale.
func TestUncalledNamesGuard(t *testing.T) {
	lib := srcFile{"internal/lib/lib.go", `package lib
type Net struct{}
func (n *Net) Send() {}
func (n *Net) Broadcast2() {}
func (n *Net) Deliver() {}
func (n *Net) String() string { return "" }
func New() *Net { return &Net{} }
func Max(a, b int) int { return a }
func Shown() {}
func Hook() {}
type private struct{}
func (private) Loose() {}
`}
	libTest := srcFile{"internal/lib/lib_test.go", `package lib
import "testing"
func TestMax(t *testing.T) { _ = Max(1, 2); New().Broadcast2() }
func ExampleShown() { Shown() }
`}
	user := srcFile{"cmd/app/main.go", `package main
import h "hades/internal/lib"
type deliverer interface{ Deliver() }
var _ deliverer = h.New()
func main() { h.New().Send() }
`}
	hookTest := srcFile{"internal/other/other_test.go", `package other
import "hades/internal/lib"
func TestHook() { lib.Hook() }
`}
	withoutExample := srcFile{libTest.path, strings.Replace(libTest.src, "func ExampleShown", "func TestShown", 1)}
	withoutInterface := srcFile{user.path, strings.Replace(user.src, "Deliver()", "Send()", 1)}
	for _, tc := range []struct {
		name  string
		files []srcFile
		allow map[string]string
		want  []string // offender keys, then "stale:" + key
	}{
		{
			name:  "each rule",
			files: []srcFile{lib, libTest, user, hookTest},
			want:  []string{"lib.Hook", "lib.Max", "lib.Net.Broadcast2"},
		},
		{
			name:  "no Example, no interface",
			files: []srcFile{lib, withoutExample, withoutInterface, hookTest},
			want:  []string{"lib.Hook", "lib.Max", "lib.Net.Broadcast2", "lib.Net.Deliver", "lib.Shown"},
		},
		{
			name:  "allowlisted test hook",
			files: []srcFile{lib, libTest, user, hookTest},
			allow: map[string]string{"lib.Hook": "other's tests drive it"},
			want:  []string{"lib.Max", "lib.Net.Broadcast2"},
		},
		{
			name:  "stale allowlist entries",
			files: []srcFile{lib, libTest, user, hookTest},
			allow: map[string]string{"lib.Hook": "r", "lib.Max": "r", "lib.Net.Broadcast2": "r", "lib.New": "called", "lib.Gone": "deleted"},
			want:  []string{"stale:lib.Gone", "stale:lib.New"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offenders, stale, err := uncalledNames(tc.files, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			got := []string{}
			for _, o := range offenders {
				got = append(got, strings.Fields(o)[0])
			}
			for _, s := range stale {
				got = append(got, "stale:"+s)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}
