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

// protocolPackages are the data-plane packages whose records fire their
// owners: a session call, a timer, a replicated op and a netsim hop each
// name the record they serve and a payload, not a closure.
var protocolPackages = []string{
	"hades/internal/session",
	"hades/internal/txn",
	"hades/internal/shard",
	"hades/internal/pubsub",
	"hades/internal/replication",
	"hades/internal/membership",
}

// funcFieldAllowlist holds the func-typed struct fields of the protocol
// packages that stay, by "pkg.Type.field", with the reason each does:
// a hook bound once per run or per component, a caller's own completion
// callback, or a signature bench/ pins.
var funcFieldAllowlist = map[string]string{
	"membership.Service.onChange":      "view-install subscribers, registered once per component through OnChange",
	"membership.Service.onMerge":       "merge subscribers, registered once per component through OnMerge",
	"membership.stateHook.snapshot":    "a replicated service's state transfer, registered once through RegisterState; runs per join",
	"membership.stateHook.restore":     "the other half of RegisterState's state transfer",
	"pubsub.Config.ShardFor":           "the ring lookup the cluster passes once per plane",
	"pubsub.pubAttempt.done":           "PublishDone's completion callback: the caller's, bound once per load session",
	"replication.Group.onReply":        "NewGroup's answer for owner-less submissions, whose signature bench/ pins",
	"replication.Group.stored":         "the stable-store completion, bound once per group",
	"replication.StateMachine.Corrupt": "the coherent value-fault injector (paper §2.1) the replication tests set",
	"session.Batcher.emit":             "the adapter's flush sink, bound once per batcher; bench/layers passes one to NewBatcher",
	"session.Spec.Send":                "the closure adapter Go, which bench/layers/data.go pins until ROADMAP item 1(b)",
	"shard.Router.subs":                "republication subscribers, registered once per client through OnRepublish",
	"shard.request.done":               "SubmitDone's completion callback: the caller's, bound once per load session",
	"txn.Txn.OnDone":                   "the caller's completion callback, bound once per load session",
}

// maxFuncFields caps funcFieldAllowlist at its size: the list only
// shrinks.
const maxFuncFields = 14

// TestProtocolStructsHoldNoFuncs holds the protocol packages to records
// that fire their owners: a struct type declared in a non-test file of
// one of them has no field holding a func (itself, or in a slice, an
// array, a map or behind a pointer) unless funcFieldAllowlist names it
// with a reason. A closure per record is an allocation per op and state
// a reader cannot follow; an owner and its payload are neither.
func TestProtocolStructsHoldNoFuncs(t *testing.T) {
	tree, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(funcFieldAllowlist) > maxFuncFields {
		t.Errorf("funcFieldAllowlist has %d entries, at most %d", len(funcFieldAllowlist), maxFuncFields)
	}
	found := funcFields(tree.fset, tree.pkgs)
	var offenders []string
	for key, at := range found {
		if _, ok := funcFieldAllowlist[key]; !ok {
			offenders = append(offenders, key+" "+at)
		}
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Errorf("%d func-typed struct fields in the protocol packages:\n\t%s\n"+
			"make the record the owner the engine fires (session.Owner, eventq.Handler, replication.Owner), "+
			"or add the field to funcFieldAllowlist with the reason it stays",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
	for key := range funcFieldAllowlist {
		if _, ok := found[key]; !ok {
			t.Errorf("stale funcFieldAllowlist entry %s: the field is gone or holds no func; remove the entry", key)
		}
	}
}

// funcFields returns the func-typed fields of the struct types declared
// at package level in the non-test files of protocolPackages, as
// "pkg.Type.field" → "file:line".
func funcFields(fset *token.FileSet, pkgs []typedPkg) map[string]string {
	out := map[string]string{}
	for _, p := range pkgs {
		if !slices.Contains(protocolPackages, p.pkg.Path()) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || isTestFile(fset, tn.Pos()) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if holdsFunc(f.Type()) {
					pos := fset.Position(f.Pos())
					out[p.pkg.Name()+"."+name+"."+f.Name()] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				}
			}
		}
	}
	return out
}

// holdsFunc reports whether a value of type t is a func or holds one
// directly: as the element of a slice, an array, a map or a pointer.
func holdsFunc(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Slice:
		return holdsFunc(u.Elem())
	case *types.Array:
		return holdsFunc(u.Elem())
	case *types.Map:
		return holdsFunc(u.Elem())
	case *types.Pointer:
		return holdsFunc(u.Elem())
	}
	return false
}
