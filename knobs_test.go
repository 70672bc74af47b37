package hades_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// knobsAllowlist holds the option fields under internal/ that no run sets
// and that stay anyway. One reason each; at most maxKnobsAllowed entries.
var knobsAllowlist = map[string]string{
	"netsim.Config.WAtm":           "bench/layers builds networks through netsim.New(eng, DefaultConfig()); retires with ROADMAP item 1(b)",
	"netsim.Config.WProto":         "bench/layers builds networks through netsim.New(eng, DefaultConfig()); retires with ROADMAP item 1(b)",
	"netsim.Config.PrioNet":        "bench/layers builds networks through netsim.New(eng, DefaultConfig()); retires with ROADMAP item 1(b)",
	"cluster.TraceParams.Disabled": "the observability budget's planes-off run and the allocation gates turn it (ROADMAP item 27(c))",
	"cluster.Config.CancelOnMiss":  "selects a behaviour (orphan-on-miss, §3.2.1), not a value",
}

const maxKnobsAllowed = 5

// TestOnlyKnobsARunSets holds the option structs of internal/ to the
// knobs some run turns. Every untagged field of an exported struct type
// declared in a non-test file under internal/ whose name ends in Config,
// Params, Options or Spec must be written by a non-test file: the root
// module, cmd/, examples/ and bench/ all count. A write is a composite
// literal entry or what markWrites says; a constant the field's own
// package writes (its default: a compile-time constant, or a literal
// built of them) does not count, since no run then sets anything else. A
// field no run sets is a constant of the model and is written as one.
func TestOnlyKnobsARunSets(t *testing.T) {
	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(knobsAllowlist) > maxKnobsAllowed {
		t.Errorf("knobsAllowlist has %d entries, at most %d", len(knobsAllowlist), maxKnobsAllowed)
	}
	offenders, stale := unsetKnobs(tree.fset, tree.pkgs, knobsAllowlist)
	if len(offenders) > 0 {
		t.Errorf("%d option fields under internal/ that no run sets:\n\t%s\n"+
			"for each: make it the constant every run already uses, deleting the default fill and the checks "+
			"that only it needed, or add it to knobsAllowlist with the reason it stays",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
	for _, k := range stale {
		t.Errorf("stale knobsAllowlist entry %s: the field is gone, out of scope, or a run now sets it; remove the entry", k)
	}
}

// isKnobType reports whether a type name is an option struct's.
func isKnobType(name string) bool {
	for _, suffix := range []string{"Config", "Params", "Options", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// unsetKnobs returns, as "pkg.Type.field file:line", each untagged field
// of an exported option struct (isKnobType) declared in a non-test file
// under internal/ that no non-test file of pkgs sets and the allowlist
// does not hold, and the allowlist keys that name no such field.
func unsetKnobs(fset *token.FileSet, pkgs []typedPkg, allow map[string]string) (offenders, stale []string) {
	declared := map[string]string{} // "pkg.Type.field" -> file:line
	set := map[string]bool{}

	for _, p := range pkgs {
		for _, f := range p.files {
			if !strings.HasPrefix(fset.Position(f.Pos()).Filename, "internal/") || isTestFile(fset, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Assign.IsValid() || !ts.Name.IsExported() || !isKnobType(ts.Name.Name) {
						continue
					}
					st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := range st.NumFields() {
						if fld := st.Field(i); fld.Name() != "_" && st.Tag(i) == "" {
							pos := fset.Position(fld.Pos())
							declared[p.pkg.Name()+"."+ts.Name.Name+"."+fld.Name()] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						}
					}
				}
			}
		}
	}

	for _, p := range pkgs {
		for _, f := range p.files {
			if isTestFile(fset, f.Pos()) {
				continue
			}
			// setBy charges a write of field fld of the struct type owner,
			// with value v (nil when it is not one expression), to the field.
			setBy := func(owner types.Type, fld string, v ast.Expr) {
				n, ok := types.Unalias(owner).(*types.Named)
				if !ok || n.Obj().Pkg() == nil {
					return
				}
				if v != nil && n.Obj().Pkg().Path() == p.pkg.Path() && isConstant(p, v) {
					return // the package's own constant: a default, not a knob
				}
				set[typeKey(n)+"."+fld] = true
			}
			values := map[ast.Expr]ast.Expr{} // assigned selector -> its value
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						for i, lhs := range n.Lhs {
							values[ast.Unparen(lhs)] = n.Rhs[i]
						}
					}
				case *ast.CompositeLit:
					t := p.info.TypeOf(n)
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							setBy(t, kv.Key.(*ast.Ident).Name, kv.Value)
						} else if i < st.NumFields() {
							setBy(t, st.Field(i).Name(), elt)
						}
					}
				}
				return true
			})
			writes := map[ast.Expr]bool{}
			markWrites(p, f, writes)
			for e := range writes {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s := p.info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					continue
				}
				// The struct declaring the field is the last step of the path.
				t := s.Recv()
				for _, idx := range s.Index()[:len(s.Index())-1] {
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					t = t.Underlying().(*types.Struct).Field(idx).Type()
				}
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				setBy(t, sel.Sel.Name, values[sel])
			}
		}
	}

	for key, pos := range declared {
		switch {
		case set[key] && allow[key] != "":
			stale = append(stale, key)
		case !set[key] && allow[key] == "":
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

// isConstant reports whether e is a compile-time constant or a
// composite literal whose every key and element is one.
func isConstant(p typedPkg, e ast.Expr) bool {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok {
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				// A struct literal's field name has no type entry.
				if _, typed := p.info.Types[kv.Key]; typed && !isConstant(p, kv.Key) {
					return false
				}
				elt = kv.Value
			}
			if !isConstant(p, elt) {
				return false
			}
		}
		return true
	}
	return p.info.Types[e].Value != nil
}

// TestKnobSetClassification runs the knob guard over in-memory packages:
// a field only a test sets and a field only its own package's constants
// set (assigned, or a literal of constants) are offenders; a write from a
// parameter (a literal holding one too), a constant written by another
// package, a keyed or positional literal entry and an assignment through
// a pointer each set their field; a tagged field, an unexported
// type and a type whose name is out of scope are not looked at; and an
// allowlist entry is taken while one naming a set or missing field is
// stale.
func TestKnobSetClassification(t *testing.T) {
	const lib = `package lib

const defaultPeriod = 10

type Config struct {
	TestOnly     int
	OwnConst     int
	OwnConstSet  int
	OwnLiteral   []string
	FromParam    int
	ParamLiteral map[string]int
	OtherConst   int
	Assigned     int
	Tagged       int ` + "`json:\"tagged\"`" + `
}

type Pair struct{ A, B int }

type PairParams Pair

type Engine struct{ Unset int }

type hiddenConfig struct{ Unset int }

func Default(n int) Config {
	c := Config{OwnConst: defaultPeriod, FromParam: n, OwnLiteral: []string{"a", "b"}}
	c.OwnConstSet = 2 * defaultPeriod
	c.ParamLiteral = map[string]int{"a": n}
	_ = hiddenConfig{}
	return c
}
`
	const libTest = `package lib

func fixture() Config { return Config{TestOnly: 1} }
`
	const app = `package main

import "hades/internal/lib"

func main() {
	c := &lib.Config{OtherConst: 3}
	c.Assigned = len("x")
	_ = lib.PairParams{1, 2}
}
`
	fset := token.NewFileSet()
	imp := fixtureImporter{}
	var pkgs []typedPkg
	for _, p := range []struct {
		path string
		srcs map[string]string
	}{
		{"hades/internal/lib", map[string]string{"internal/lib/lib.go": lib, "internal/lib/lib_test.go": libTest}},
		{"hades/cmd/app", map[string]string{"cmd/app/main.go": app}},
	} {
		tp, err := checkSource(fset, p.path, p.srcs, imp)
		if err != nil {
			t.Fatal(err)
		}
		imp[p.path] = tp.pkg
		pkgs = append(pkgs, tp)
	}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string // offender keys, then "stale:" + key
	}{
		{name: "each rule", want: []string{"lib.Config.OwnConst", "lib.Config.OwnConstSet", "lib.Config.OwnLiteral", "lib.Config.TestOnly"}},
		{
			name:  "allowlist",
			allow: map[string]string{"lib.Config.TestOnly": "r", "lib.Config.FromParam": "set", "lib.Engine.Unset": "out of scope", "lib.Config.Tagged": "tagged"},
			want: []string{"lib.Config.OwnConst", "lib.Config.OwnConstSet", "lib.Config.OwnLiteral",
				"stale:lib.Config.FromParam", "stale:lib.Config.Tagged", "stale:lib.Engine.Unset"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offenders, stale := unsetKnobs(fset, pkgs, tc.allow)
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
