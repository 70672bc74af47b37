package hades_test

import (
	"fmt"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// retiredDoors are the ways into the event queue the program may not
// use, by funcKey: the engine's closure adapters, and the queue's
// never-recycled records with the Cancel that takes one. They stay only
// because bench/ (a module of its own) and tests call them, until
// ROADMAP item 1(b) moves bench/ off them.
var retiredDoors = []string{
	"hades/internal/simkern.Engine.At",
	"hades/internal/simkern.Engine.After",
	"hades/internal/eventq.Queue.Push",
	"hades/internal/eventq.Queue.Cancel",
}

// TestOneDoorIntoTheEventQueue holds the program to one door into the
// event queue: non-test code under internal/, cmd/ and examples/
// schedules only through simkern.Engine.Arm and its slot form AtSlot,
// and uses no retired door, called or as a method value. Uses are
// go/types resolutions on the typedTree load, so vtime.Time.After and
// cluster.Cluster.At, which share the names, pass.
func TestOneDoorIntoTheEventQueue(t *testing.T) {
	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	if uses := retiredDoorUses(tree.fset, tree.pkgs); len(uses) > 0 {
		t.Errorf("%d uses of a retired door into the event queue:\n\t%s\n"+
			"schedule through simkern.Engine.Arm (or AtSlot for a chain): an owner and its payload, or eventq.Func(fn)",
			len(uses), strings.Join(uses, "\n\t"))
	}
}

// retiredDoorUses returns, as "pkg.Recv.Name file:line", each use of a
// retiredDoors method in a non-test file under internal/, cmd/ or
// examples/.
func retiredDoorUses(fset *token.FileSet, pkgs []typedPkg) []string {
	var out []string
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || isTestFile(fset, id.Pos()) {
				continue
			}
			pos := fset.Position(id.Pos())
			if !strings.HasPrefix(pos.Filename, "internal/") && !strings.HasPrefix(pos.Filename, "cmd/") &&
				!strings.HasPrefix(pos.Filename, "examples/") {
				continue
			}
			if key, name := funcKey(fn); slices.Contains(retiredDoors, key) {
				out = append(out, fmt.Sprintf("%s %s:%d", name, pos.Filename, pos.Line))
			}
		}
	}
	sort.Strings(out)
	return out
}
