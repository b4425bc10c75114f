package audit

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignEventTable pins the event taxonomy table of DESIGN.md §4e to the
// code: every Kind's wire name appears in the table's first column, and
// every name listed there is a real Kind.
func TestDesignEventTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "### Event taxonomy (`internal/audit`)"
	_, sec, ok := strings.Cut(string(doc), heading)
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", heading)
	}
	sec, _, _ = strings.Cut(sec, "\n### ")
	names := map[string]bool{}
	code := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(sec, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cols[1], -1) {
			if _, ok := KindFromString(m[1]); !ok {
				t.Errorf("DESIGN.md §4e lists %q, which is not an event kind", m[1])
			}
			names[m[1]] = true
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !names[k.String()] {
			t.Errorf("event kind %q is missing from the DESIGN.md §4e table", k)
		}
	}
}
