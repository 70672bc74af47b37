package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readmeFixtures are the files a README command line reads that no
// earlier line writes, by the name the line gives them, with the
// repository file each one is copied from.
var readmeFixtures = map[string]string{
	"myset.json":                    "internal/scenario/builtins/spuri-example.json",
	"baselines/LOAD_hot-shard.json": "baselines/LOAD_hot-shard.json",
}

// readmeLine is one hades command line of the README.
type readmeLine struct {
	line     int // 1-based, in README.md
	args     []string
	wantCode int
}

// readmeCommands returns every `hades …` and `go run ./cmd/hades …` line
// of the README's fenced blocks, in order. A line expects exit 0 unless
// its comment is exactly `# exit 1`.
func readmeCommands(readme string) []readmeLine {
	var out []readmeLine
	fenced := false
	for i, text := range strings.Split(readme, "\n") {
		text = strings.TrimSpace(text)
		if strings.HasPrefix(text, "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		cmd, comment, _ := strings.Cut(text, " #")
		var rest string
		var ok bool
		if rest, ok = strings.CutPrefix(cmd, "go run ./cmd/hades "); !ok {
			if rest, ok = strings.CutPrefix(cmd, "hades "); !ok {
				continue
			}
		}
		want := exitOK
		if strings.TrimSpace(comment) == "exit 1" {
			want = exitBad
		}
		out = append(out, readmeLine{line: i + 1, args: strings.Fields(rest), wantCode: want})
	}
	return out
}

// TestReadmeCommands runs every hades command line of the README, in
// order and in-process through the commands table, from a temp dir that
// holds the files the lines write, so a flag, key or builtin the README
// still names after it retired fails here.
func TestReadmeCommands(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := readmeCommands(string(readme))
	if len(lines) == 0 {
		t.Fatal("README.md has no hades command lines in its fenced blocks")
	}
	dir := t.TempDir()
	for name, src := range readmeFixtures {
		data, err := os.ReadFile(filepath.Join("../..", src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	for _, l := range lines {
		var stdout, stderr bytes.Buffer
		if code := run(l.args, &stdout, &stderr); code != l.wantCode {
			t.Errorf("README.md:%d hades %s: exit %d, want %d\nstderr:\n%s",
				l.line, strings.Join(l.args, " "), code, l.wantCode, stderr.String())
		}
	}
	t.Logf("%d README command lines ran", len(lines))
}

// TestReadmeCommandsParse: fenced lines in both spellings are taken with
// their comments dropped, `# exit 1` expects exit 1, and prose, other
// commands and lines outside a fence are not taken.
func TestReadmeCommandsParse(t *testing.T) {
	const readme = "hades list\n" +
		"```sh\n" +
		"go run ./cmd/hades run -builtin sharded-kv   # the kv plane\n" +
		"hades diff old.json new.json  # exit 1\n" +
		"hades check m.json  # exit 1 on a bad file\n" +
		"go build -o bin/hades ./cmd/hades\n" +
		"```\n" +
		"`hades run` prints\n"
	got := readmeCommands(readme)
	want := []readmeLine{
		{3, []string{"run", "-builtin", "sharded-kv"}, exitOK},
		{4, []string{"diff", "old.json", "new.json"}, exitBad},
		{5, []string{"check", "m.json"}, exitOK},
	}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].line != want[i].line || strings.Join(got[i].args, " ") != strings.Join(want[i].args, " ") ||
			got[i].wantCode != want[i].wantCode {
			t.Errorf("line %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
