package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestBuiltinReturnsFreshSpec: what one caller does to a builtin's spec
// — through its pointer and slice fields too — never reaches the next.
func TestBuiltinReturnsFreshSpec(t *testing.T) {
	a, err := Builtin("sharded-kv")
	if err != nil {
		t.Fatal(err)
	}
	a.Shards.Count = 9
	*a.Observe.TraceSampleRate = 0.5
	a.Tasks[0].Stages[0].Node = 5
	b, err := Builtin("sharded-kv")
	if err != nil {
		t.Fatal(err)
	}
	if b.Shards.Count != 2 || *b.Observe.TraceSampleRate != 1 || b.Tasks[0].Stages[0].Node != 6 {
		t.Fatalf("a caller's mutation leaked into the catalogue: shards.count=%d traceSampleRate=%g stage node=%d",
			b.Shards.Count, *b.Observe.TraceSampleRate, b.Tasks[0].Stages[0].Node)
	}
	c, err := Builtin("sharded-kv")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, c) {
		t.Fatalf("two untouched calls differ:\n%+v\n%+v", b, c)
	}
}

// TestBuiltinFiles: every embedded file is named after the scenario it
// holds, passes the strict loader, and survives decode → marshal →
// decode unchanged (no field is lost to a missing or misspelt tag).
func TestBuiltinFiles(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 11 {
		t.Fatalf("catalogue holds %d builtins, want at least the original eleven: %v", len(names), names)
	}
	for _, name := range names {
		spec, err := Builtin(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Name != name {
			t.Errorf("builtins/%s.json declares name %q", name, spec.Name)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decode(data, name+" (re-marshalled)")
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: round trip differs:\n%+v\n%+v", name, spec, back)
		}
	}
}

// TestBuiltinDecodedStrictly: a builtin file goes through the same
// strict door as a user's — an unknown key is rejected by name.
func TestBuiltinDecodedStrictly(t *testing.T) {
	data, err := builtinFS.ReadFile("builtins/hot-shard.json")
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data), `"nodes":`, `"description": "no such key", "nodes":`, 1)
	if doctored == string(data) {
		t.Fatal("injection point not found")
	}
	_, err = decode([]byte(doctored), "builtins/hot-shard.json")
	if err == nil || !strings.Contains(err.Error(), `unknown field "description"`) || !strings.Contains(err.Error(), "builtins/hot-shard.json") {
		t.Fatalf("error %v, want one naming the unknown field and the file", err)
	}
}
