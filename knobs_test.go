package hades_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

	return judgeSets(declared, fieldSets(fset, pkgs, func(string) bool { return true }), allow)
}

// judgeSets returns, sorted, each declared field ("key where") that set
// does not hold and allow does not excuse, and each allow key naming a
// field that is set or not declared.
func judgeSets(declared map[string]string, set map[string]bool, allow map[string]string) (offenders, stale []string) {
	for key, where := range declared {
		switch {
		case set[key] && allow[key] != "":
			stale = append(stale, key)
		case !set[key] && allow[key] == "":
			offenders = append(offenders, key+" "+where)
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

// fieldSets returns, as "pkg.Type.field", each struct field that a
// non-test file of pkgs whose name from accepts sets: a composite
// literal entry or what markWrites says. A constant the field's own
// package writes (its default: a compile-time constant, or a literal
// built of them) does not count.
func fieldSets(fset *token.FileSet, pkgs []typedPkg, from func(file string) bool) map[string]bool {
	set := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			if isTestFile(fset, f.Pos()) || !from(fset.Position(f.Pos()).Filename) {
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
	return set
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

// scenarioKeysAllowlist holds the scenario keys that no run sets and
// that stay anyway. One reason each; at most maxScenarioKeysAllowed
// entries.
var scenarioKeysAllowlist = map[string]string{}

const maxScenarioKeysAllowed = 2

// The scenario files runs read: the catalogue and the regress corpus.
var scenarioRunFiles = []string{"internal/scenario/builtins/*.json", "internal/scenario/testdata/regress/*.json"}

// TestOnlyScenarioKeysARunSets holds the JSON scenario schema to the
// keys some run sets. Every JSON-tagged field of every internal/scenario
// struct reachable from scenario.Spec, through pointers, slices and maps,
// must be set either by a builtin or regress file, whose keys are
// matched to fields by type as the decoder matches them (so "disabled"
// on a load block does not set the metrics block's), or by a non-test
// file outside internal/ (the root package, cmd/, examples/, bench/), as
// fieldSets finds writes. A key only a validation test sets is a
// constant of the model: it retires with the code only it reaches, and
// strict decoding refuses it by name.
func TestOnlyScenarioKeysARunSets(t *testing.T) {
	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarioKeysAllowlist) > maxScenarioKeysAllowed {
		t.Errorf("scenarioKeysAllowlist has %d entries, at most %d", len(scenarioKeysAllowlist), maxScenarioKeysAllowed)
	}
	var root *types.Named
	for _, p := range tree.pkgs {
		if p.pkg.Path() == "hades/internal/scenario" {
			root = p.pkg.Scope().Lookup("Spec").Type().(*types.Named)
		}
	}
	if root == nil {
		t.Fatal("no scenario.Spec in the typed tree")
	}
	docs := map[string][]byte{}
	for _, pattern := range scenarioRunFiles {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no scenario files match %s (%v)", pattern, err)
		}
		for _, path := range paths {
			if docs[path], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	offenders, stale, err := unsetScenarioKeys(tree.fset, tree.pkgs, root, docs, scenarioKeysAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Errorf("%d scenario keys that no run sets:\n\t%s\n"+
			"for each: retire the field with the code only it reaches and refuse the key by name in a strict-decoding test, "+
			"land it together with the builtin, regress file or bench workload that sets it, "+
			"or add it to scenarioKeysAllowlist with the reason it stays",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
	for _, k := range stale {
		t.Errorf("stale scenarioKeysAllowlist entry %s: the field is gone, untagged, unreachable from Spec, or a run now sets it; remove the entry", k)
	}
}

// unsetScenarioKeys returns, as "pkg.Type.Field (key) file:line", each
// JSON-tagged field of a struct of root's package reachable from root
// that no doc (path -> JSON) sets with a non-null value and no non-test
// file outside internal/ writes, less the allowlist, and the allowlist
// keys that name no such field. A doc key that matches no field is an
// error: the walk lost the decoder's track.
func unsetScenarioKeys(fset *token.FileSet, pkgs []typedPkg, root *types.Named, docs map[string][]byte, allow map[string]string) (offenders, stale []string, err error) {
	declared := map[string]string{} // "pkg.Type.Field" -> "(key) file:line"
	seen := map[*types.Named]bool{}
	var declare func(t types.Type)
	declare = func(t types.Type) {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			declare(u.Elem())
		case *types.Slice:
			declare(u.Elem())
		case *types.Array:
			declare(u.Elem())
		case *types.Map:
			declare(u.Elem())
		case *types.Named:
			st, ok := u.Underlying().(*types.Struct)
			if !ok || u.Obj().Pkg() != root.Obj().Pkg() || seen[u] {
				return
			}
			seen[u] = true
			for i := range st.NumFields() {
				if key := jsonKey(st, i); key != "" {
					pos := fset.Position(st.Field(i).Pos())
					declared[typeKey(u)+"."+st.Field(i).Name()] = fmt.Sprintf("(%s) %s:%d", key, pos.Filename, pos.Line)
					declare(st.Field(i).Type())
				}
			}
		}
	}
	declare(root)

	set := fieldSets(fset, pkgs, func(file string) bool { return !strings.HasPrefix(file, "internal/") })
	var walk func(path string, v any, t types.Type) error
	walk = func(path string, v any, t types.Type) error {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			return walk(path, v, u.Elem())
		case *types.Slice, *types.Array:
			elem := u.(interface{ Elem() types.Type }).Elem()
			items, _ := v.([]any)
			for _, item := range items {
				if err := walk(path, item, elem); err != nil {
					return err
				}
			}
		case *types.Map:
			obj, _ := v.(map[string]any)
			for _, item := range obj {
				if err := walk(path, item, u.Elem()); err != nil {
					return err
				}
			}
		case *types.Struct:
			obj, _ := v.(map[string]any)
			for k, item := range obj {
				i := fieldForKey(u, k)
				if i < 0 {
					return fmt.Errorf("%s: key %q matches no field of %s", path, k, typeKey(t))
				}
				if item != nil {
					set[typeKey(t)+"."+u.Field(i).Name()] = true
				}
				if err := walk(path, item, u.Field(i).Type()); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, path := range slices.Sorted(maps.Keys(docs)) {
		var v any
		if err := json.Unmarshal(docs[path], &v); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", path, err)
		}
		if err := walk(path, v, root); err != nil {
			return nil, nil, err
		}
	}
	offenders, stale = judgeSets(declared, set, allow)
	return offenders, stale, nil
}

// jsonKey is the key encoding/json reads field i of st under, "" when
// the field has no json tag or the tag skips it.
func jsonKey(st *types.Struct, i int) string {
	tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
	if !ok || !st.Field(i).Exported() {
		return ""
	}
	switch name, _, _ := strings.Cut(tag, ","); name {
	case "-":
		return ""
	case "":
		return st.Field(i).Name()
	default:
		return name
	}
}

// fieldForKey is the index of the field of st that encoding/json
// decodes key into, or -1: an exact match first, else a case-insensitive
// one.
func fieldForKey(st *types.Struct, key string) int {
	fold := -1
	for i := range st.NumFields() {
		switch name := jsonKey(st, i); {
		case name == key:
			return i
		case fold < 0 && name != "" && strings.EqualFold(name, key):
			fold = i
		}
	}
	return fold
}

// TestScenarioKeyClassification runs the scenario-key guard over
// in-memory packages: a key is matched to a field by type, through
// pointers, slices and maps, so one key name on two structs sets only
// the field a file reaches; a present key sets its field even when its
// value is empty, a null one does not; a write from cmd/ sets, one from
// a test or from the schema's own package does not; untagged, skipped
// and unreachable fields are not looked at; a doc key no field takes is
// an error; and an allowlist entry is taken while one naming a set or
// undeclared field is stale.
func TestScenarioKeyClassification(t *testing.T) {
	const lib = `package lib

type Spec struct {
	Name     string           ` + "`json:\"name\"`" + `
	Inner    *Inner           ` + "`json:\"inner,omitempty\"`" + `
	Items    []Item           ` + "`json:\"items\"`" + `
	ByKey    map[string]Entry ` + "`json:\"byKey\"`" + `
	FromCmd  int              ` + "`json:\"fromCmd\"`" + `
	FromTest int              ` + "`json:\"fromTest\"`" + `
	Null     *int             ` + "`json:\"null\"`" + `
	Skipped  int              ` + "`json:\"-\"`" + `
	Untagged int
}

type Inner struct {
	Disabled bool    ` + "`json:\"disabled\"`" + `
	Deep     []*Item ` + "`json:\"deep\"`" + `
}

type Item struct{ Disabled bool ` + "`json:\"disabled\"`" + ` }

type Entry struct{ V int ` + "`json:\"v\"`" + ` }

type Unreached struct{ X int ` + "`json:\"x\"`" + ` }

func (s *Spec) fill() { s.Null = new(int) }
`
	const libTest = `package lib

func fixture() Spec { return Spec{FromTest: 1} }
`
	const app = `package main

import "hades/internal/lib"

func main() { _ = lib.Spec{FromCmd: len("x")} }
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
	root := pkgs[0].pkg.Scope().Lookup("Spec").Type().(*types.Named)
	docs := map[string][]byte{
		"a.json": []byte(`{"name": "a", "items": [{"disabled": true}], "inner": {"deep": []}, "null": null}`),
		"b.json": []byte(`{"byKey": {"k": {"v": 1}}}`),
	}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string // offender keys, then "stale:" + key
	}{
		{name: "each rule", want: []string{"lib.Inner.Disabled", "lib.Spec.FromTest", "lib.Spec.Null"}},
		{
			name:  "allowlist",
			allow: map[string]string{"lib.Spec.FromTest": "r", "lib.Spec.Name": "set", "lib.Unreached.X": "unreachable", "lib.Spec.Untagged": "untagged"},
			want:  []string{"lib.Inner.Disabled", "lib.Spec.Null", "stale:lib.Spec.Name", "stale:lib.Spec.Untagged", "stale:lib.Unreached.X"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offenders, stale, err := unsetScenarioKeys(fset, pkgs, root, docs, tc.allow)
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
				t.Errorf("got %v\nwant %v", got, tc.want)
			}
		})
	}
	t.Run("unknown key", func(t *testing.T) {
		_, _, err := unsetScenarioKeys(fset, pkgs, root, map[string][]byte{"c.json": []byte(`{"inner": {"disabld": true}}`)}, nil)
		if err == nil || !strings.Contains(err.Error(), `"disabld"`) {
			t.Errorf("error %v, want one naming the key", err)
		}
	})
}
