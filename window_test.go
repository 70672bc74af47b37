package hades_test

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
)

// TestDefaultWindowHasAReader: a cluster's monitor window keeps, unasked,
// only what the benchmark reads of it, so every kind in that default
// set is named in a monitor.Log.ByKind call in a non-test file under
// bench/. Once the benchmark asks for its kinds itself (ROADMAP item
// 1(a)), this fails until the default keeps nothing.
func TestDefaultWindowHasAReader(t *testing.T) {
	c := cluster.New(cluster.Config{})
	for _, k := range monitor.Kinds() {
		c.Engine().Recordf(k, 0, "", "")
	}
	kept := map[monitor.Kind]bool{}
	for _, e := range c.Log().Events() {
		kept[e.Kind] = true
	}
	if len(kept) == 0 {
		return
	}

	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	read := map[monitor.Kind]bool{}
	for _, p := range tree.pkgs {
		for _, f := range p.files {
			if isTestFile(tree.fset, f.Pos()) || !strings.HasPrefix(tree.fset.Position(f.Pos()).Filename, "bench/") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "hades/internal/monitor" || fn.Name() != "ByKind" {
					return true
				}
				for _, arg := range call.Args {
					if v := p.info.Types[arg].Value; v != nil {
						if k, exact := constant.Uint64Val(v); exact {
							read[monitor.Kind(k)] = true
						}
					}
				}
				return true
			})
		}
	}
	for k := range kept {
		if !read[k] {
			t.Errorf("a cluster's window keeps %s by default, but no ByKind call under bench/ reads it: drop it from cluster.New's keep set", k)
		}
	}
}
