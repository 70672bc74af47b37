package main

import (
	"bytes"
	"strings"
	"testing"
)

// cliCase is one row of a CLI table test: the arguments after "hades",
// the exit code, and a substring expected on each stream ("" to skip).
type cliCase struct {
	name       string
	args       []string
	wantCode   int
	wantStdout string
	wantStderr string
}

func runCases(t *testing.T, cases []cliCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}

// TestDispatch: every name in the usage text is a subcommand, and what
// is not one cannot run (exit 2) and says what can.
func TestDispatch(t *testing.T) {
	runCases(t, []cliCase{
		{"no argument", nil, 2, "", "usage: hades <subcommand>"},
		{"unknown subcommand", []string{"simulate"}, 2, "", `unknown subcommand "simulate"`},
		{"a flag is not a subcommand", []string{"-builtin", "sharded-kv"}, 2, "", "unknown subcommand"},
		{"subcommand help prints the flags", []string{"run", "-h"}, 2, "", "-builtin"},
	})
	var usage bytes.Buffer
	run(nil, &usage, &usage)
	for _, c := range commands {
		if !strings.Contains(usage.String(), "\n  "+c.name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.name, usage.String())
		}
	}
}
