package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixture is a one-package module with its own go.mod, so judging its
// mutants builds nothing outside it and needs no network.
const fixture = "testdata/fixture"

// runOne writes a mutant file of the fixture's add.go with the given old
// and new snippets and extra header lines, runs it, and returns run's
// verdict and output.
func runOne(t *testing.T, header, old, new string) (bool, string) {
	t.Helper()
	text := "# a fixture mutant\nfile: add.go\npackage: .\n" + header +
		"-- old --\n" + old + "-- new --\n" + new
	path := filepath.Join(t.TempDir(), "m.mutant")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok := run(fixture, []string{path}, &out)
	return ok, out.String()
}

// TestRunVerdicts: each kind of mutant gets its verdict, and only a killed
// one lets the run pass.
func TestRunVerdicts(t *testing.T) {
	for _, c := range []struct {
		name, header, old, new string
		want                   string // the verdict word run prints
		detail                 string // a substring of run's output
	}{
		{"killed", "tests: TestAdd\n", "\treturn a + b\n", "\treturn a - b\n",
			"killed", "0 survived, 0 errors"},
		{"killed with match", "tests: TestAdd\nmatch: Add\\(2, 3\\) = -1, want 5\n", "\treturn a + b\n", "\treturn a - b\n",
			"killed", "Add(2, 3) = -1, want 5"},
		{"survivor", "tests: TestAdd\n", "\treturn 2 * x\n", "\treturn 3 * x\n",
			"SURVIVED", "passed with the mutant in place"},
		{"output misses match", "tests: TestAdd\nmatch: never printed\n", "\treturn a + b\n", "\treturn a - b\n",
			"SURVIVED", "does not match"},
		{"snippet absent", "tests: TestAdd\n", "\treturn a * b\n", "\treturn a - b\n",
			"ERROR", "occurs 0 times"},
		{"snippet twice", "tests: TestAdd\n", "}\n", "}\n\n",
			"ERROR", "occurs 2 times"},
		{"does not build", "tests: TestAdd\n", "\treturn a + b\n", "\treturn a +\n",
			"ERROR", "does not build"},
		{"no named test ran", "tests: TestMissing\n", "\treturn a + b\n", "\treturn a - b\n",
			"ERROR", "no named test ran"},
		{"bad header", "tests: TestAdd\ncolour: red\n", "\treturn a + b\n", "\treturn a - b\n",
			"ERROR", `unknown header key "colour"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			ok, out := runOne(t, c.header, c.old, c.new)
			if ok != (c.want == "killed") || !strings.HasPrefix(out, c.want+" ") || !strings.Contains(out, c.detail) {
				t.Fatalf("run returned %v, want verdict %s with %q in its output:\n%s", ok, c.want, c.detail, out)
			}
		})
	}
	if src, err := os.ReadFile(filepath.Join(fixture, "add.go")); err != nil || !bytes.Contains(src, []byte("return a + b")) {
		t.Fatalf("the fixture's source changed on disk (%v)", err)
	}
}

// TestParseRejects: malformed mutant files are refused before anything runs.
func TestParseRejects(t *testing.T) {
	for _, text := range []string{
		"file: a.go\npackage: .\ntests: TestA\n-- new --\nx\n",               // no old section
		"file: a.go\npackage: .\ntests: TestA\n-- old --\nx\n",               // no new section
		"file: a.go\npackage: .\n-- old --\nx\n-- new --\ny\n",               // no tests
		"file: a.go\npackage: .\ntests: TestA\n-- old --\n-- new --\ny\n",    // empty old
		"file: a.go\npackage: .\ntests: TestA\n-- old --\nx\n-- new --\nx\n", // no change
		"file: a.go\npackage: .\ntests: Test(A)\n-- old --\nx\n-- new --\ny\n",
		"file: a.go\npackage: .\ntests: TestA\nmatch: (\n-- old --\nx\n-- new --\ny\n",
		"file: a.go\npackage: .\ntests: TestA\n-- old --\nx\n-- new --\ny\n-- old --\nz\n",
	} {
		if _, err := parse(text); err == nil {
			t.Errorf("parse accepted:\n%s", text)
		}
	}
}

// TestCommittedMutantsApply: every committed mutant parses, its snippet
// occurs exactly once in the current source and each test it names is
// declared in its package, so a change that makes a mutant stale fails
// here, not only in `make mutants`.
func TestCommittedMutantsApply(t *testing.T) {
	const root = "../.."
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "mutants", "*.mutant"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed mutants found (%v)", err)
	}
	for _, p := range paths {
		m, err := readMutant(p)
		if err == nil {
			_, err = m.apply(root)
		}
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		tests, _ := filepath.Glob(filepath.Join(root, m.pkg, "*_test.go"))
		var src []byte
		for _, f := range tests {
			b, _ := os.ReadFile(f)
			src = append(src, b...)
		}
		for _, name := range m.tests {
			if !regexp.MustCompile(`(?m)^func ` + name + `\(`).Match(src) {
				t.Errorf("%s: %s declares no test %s", filepath.Base(p), m.pkg, name)
			}
		}
	}
}
