package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this build")

// TestStdoutGolden runs the example and holds its stdout byte for byte:
// the run is a pure function of the code, so any drift shows here. A
// VIOLATION line fails even when it is the golden's.
func TestStdoutGolden(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	f.Close()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(got, []byte("VIOLATION")) {
		t.Errorf("the example reported a violation:\n%s", got)
	}
	const golden = "testdata/stdout.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout changed; got:\n%s\nwant:\n%s", got, want)
	}
}
