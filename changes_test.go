package hades_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Caps on what CHANGES.md adds per change; the long form belongs in the
// commit message.
const (
	maxEntryBytes = 1024
	maxFoundBytes = 500
)

// entryShape is the fixed opening of an entry: its change number,
// archetype and title, then the four fields in order.
var entryShape = regexp.MustCompile(`^PR [0-9]+ \[[a-z_]+\] [^*]+?\. \*\*Claim\*\*: .*\*\*Retired\*\*: .*\*\*Moved\*\*: .*\*\*Checks\*\*: `)

// TestChangesEntriesStayShort holds every CHANGES.md line after the
// PR 60 entry to its shape: an entry (PR <n> [<archetype>] <title>.
// with **Claim**, **Retired**, **Moved** and **Checks** fields, in that
// order) of at most maxEntryBytes, or a FOUND: / MENDED line of at most
// maxFoundBytes.
func TestChangesEntriesStayShort(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "PR 60 ") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatal("CHANGES.md has no PR 60 entry to count from")
	}
	for _, msg := range changesLineErrors(lines[start:]) {
		t.Error(msg)
	}
}

// changesLineErrors returns one message per line that breaks the shape.
func changesLineErrors(lines []string) []string {
	var out []string
	for _, l := range lines {
		head := l
		if len(head) > 40 {
			head = head[:40] + "…"
		}
		switch {
		case l == "":
		case strings.HasPrefix(l, "FOUND:") || strings.HasPrefix(l, "MENDED"):
			if len(l) > maxFoundBytes {
				out = append(out, fmt.Sprintf("%q is %d bytes, at most %d", head, len(l), maxFoundBytes))
			}
		case !entryShape.MatchString(l):
			out = append(out, fmt.Sprintf("%q does not open with `PR <n> [<archetype>] <title>.` followed by **Claim**, **Retired**, **Moved** and **Checks** fields", head))
		case len(l) > maxEntryBytes:
			out = append(out, fmt.Sprintf("%q is %d bytes, at most %d", head, len(l), maxEntryBytes))
		}
	}
	return out
}

func TestChangesLineShapes(t *testing.T) {
	entry := "PR 7 [simplicity] One door. **Claim**: c. **Retired**: r. **Moved**: m. **Checks**: k."
	for _, c := range []struct {
		line string
		ok   bool
	}{
		{entry, true},
		{"", true},
		{"FOUND: `pkg` f leaks on every call.", true},
		{"MENDED (PR 8: closed): `pkg` f leaked.", true},
		{entry + strings.Repeat("x", maxEntryBytes), false},
		{"FOUND: " + strings.Repeat("x", maxFoundBytes), false},
		{"PR 7 [simplicity] One door. **Claim**: c. **Moved**: m. **Retired**: r. **Checks**: k.", false},
		{"PR 7 One door. **Claim**: c. **Retired**: r. **Moved**: m. **Checks**: k.", false},
		{"Did a thing.", false},
	} {
		if got := len(changesLineErrors([]string{c.line})) == 0; got != c.ok {
			t.Errorf("%.60q: passes %v, want %v", c.line, got, c.ok)
		}
	}
}
