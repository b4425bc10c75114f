// Command mutants runs the committed mutation proofs. Each file under
// testdata/mutants describes one mutant: a deliberate bug in one source
// file and the tests that must catch it. For every mutant the command
// replaces the snippet in a copy of the file, points `go test -overlay` at
// the copy (the tree itself is never touched) and runs the named tests of
// the named package. It is standard library only, like tools/doccheck.
//
// Usage, from the repository root:
//
//	go run ./tools/mutants
//
// A mutant file is a header of "key: value" lines (and '#' comment lines)
// followed by two sections, the exact snippet and its replacement:
//
//	# Recovery's phase B is dropped: uncommitted stores are never undone.
//	file: internal/machine/crash.go
//	package: ./internal/fault
//	tests: TestCampaignCleanTree TestCampaignContentionCleanTree
//	match: clean tree failed: .* \([0-3] faults, replays\)
//	-- old --
//	<lines of the current source>
//	-- new --
//	<the lines that replace them>
//
// match is optional. A mutant is killed when a named test prints
// "--- FAIL:" and, if match is given, the test output matches it. A named
// test that fails without matching, or passing tests, is a survivor. A
// snippet that does not occur exactly once, a mutant that does not build,
// a run in which no named test exists and a go test run that fails without
// a named test failing are errors, never kills. Mutants run one at a time, one go process each; the command
// exits non-zero if any mutant survives or errs.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./tools/mutants (from the repository root; no arguments)")
		os.Exit(2)
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.mutant"))
	if err == nil && len(paths) == 0 {
		err = errors.New("no testdata/mutants/*.mutant files (run from the repository root)")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mutants: %v\n", err)
		os.Exit(2)
	}
	if !run(".", paths, os.Stdout) {
		os.Exit(1)
	}
}

// mutant is one parsed mutant file.
type mutant struct {
	name     string         // file name without its extension
	file     string         // source file, relative to the module root
	pkg      string         // package whose tests run, e.g. ./internal/slab
	tests    []string       // tests of pkg that must catch the mutant
	match    *regexp.Regexp // nil: any failure of a named test kills
	old, new string
}

// outcome is the verdict on one mutant.
type outcome int

const (
	killed outcome = iota
	survived
	broken // the mutant could not be judged: stale snippet, build failure, ...
)

func (o outcome) String() string { return [...]string{"killed", "SURVIVED", "ERROR"}[o] }

// run judges every mutant file in paths against the module at root, prints
// one line per mutant (with the line its match found if it was killed, the
// test output if not) and a summary to w, and reports whether every mutant
// was killed.
func run(root string, paths []string, w io.Writer) bool {
	var count [3]int
	for _, p := range paths {
		start := time.Now()
		m, err := readMutant(p)
		o, detail := broken, ""
		if err == nil {
			o, detail = judge(root, m)
		} else {
			detail = err.Error()
		}
		count[o]++
		fmt.Fprintf(w, "%-8s %s (%.1fs)\n", o, filepath.Base(p), time.Since(start).Seconds())
		if detail != "" {
			fmt.Fprintf(w, "%s\n", indent(detail))
		}
	}
	fmt.Fprintf(w, "mutants: %d killed, %d survived, %d errors\n", count[killed], count[survived], count[broken])
	return count[survived] == 0 && count[broken] == 0
}

// readMutant reads and parses the mutant file at path.
func readMutant(path string) (*mutant, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parse(string(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	m.name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return m, nil
}

// parse parses a mutant file's text.
func parse(text string) (*mutant, error) {
	const oldMark, newMark = "-- old --\n", "-- new --\n"
	head, rest, ok := strings.Cut(text, oldMark)
	if !ok || (head != "" && !strings.HasSuffix(head, "\n")) {
		return nil, errors.New("no '-- old --' line")
	}
	old, repl, ok := strings.Cut(rest, newMark)
	if !ok || (old != "" && !strings.HasSuffix(old, "\n")) {
		return nil, errors.New("no '-- new --' line after '-- old --'")
	}
	if strings.Contains(repl, oldMark) || strings.Contains(repl, newMark) {
		return nil, errors.New("more than one '-- old --' or '-- new --' section")
	}
	m := &mutant{old: old, new: repl}
	for _, line := range strings.Split(strings.TrimSuffix(head, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		val = strings.TrimSpace(val)
		if !ok || val == "" {
			return nil, fmt.Errorf("header line %q is not 'key: value'", line)
		}
		switch key {
		case "file":
			m.file = val
		case "package":
			m.pkg = val
		case "tests":
			m.tests = strings.Fields(val)
		case "match":
			re, err := regexp.Compile(val)
			if err != nil {
				return nil, fmt.Errorf("match: %v", err)
			}
			m.match = re
		default:
			return nil, fmt.Errorf("unknown header key %q", key)
		}
	}
	switch {
	case m.file == "" || m.pkg == "" || len(m.tests) == 0:
		return nil, errors.New("file, package and tests are required")
	case m.old == "":
		return nil, errors.New("empty old snippet")
	case m.old == m.new:
		return nil, errors.New("new snippet equals the old one")
	}
	for _, t := range m.tests {
		if !testName.MatchString(t) {
			return nil, fmt.Errorf("test name %q is not an identifier", t)
		}
	}
	return m, nil
}

// testName matches a top-level test, fuzz target or benchmark name.
var testName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// apply returns the mutated text of m's source file under root. The old
// snippet must occur exactly once: a stale mutant is an error, not a pass.
func (m *mutant) apply(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		return nil, fmt.Errorf("old snippet occurs %d times in %s, want exactly 1", n, m.file)
	}
	return []byte(strings.Replace(string(src), m.old, m.new, 1)), nil
}

// judge builds m as an overlay in a temporary directory, runs its tests and
// classifies the result. detail explains the verdict: for a killed mutant
// the output line its match found, if it has one.
func judge(root string, m *mutant) (outcome, string) {
	src, err := m.apply(root)
	if err != nil {
		return broken, err.Error()
	}
	target, err := filepath.Abs(filepath.Join(root, m.file))
	if err != nil {
		return broken, err.Error()
	}
	dir, err := os.MkdirTemp("", "mutant-"+m.name+"-")
	if err != nil {
		return broken, err.Error()
	}
	defer os.RemoveAll(dir)
	copyPath := filepath.Join(dir, filepath.Base(m.file))
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {target: copyPath}})
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(copyPath, src, 0o644); err != nil {
		return broken, err.Error()
	}
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		return broken, err.Error()
	}
	cmd := exec.Command("go", "test", "-count=1", "-overlay", overlayPath,
		"-run", "^("+strings.Join(m.tests, "|")+")$", m.pkg)
	cmd.Dir = root
	out, runErr := cmd.CombinedOutput()
	return classify(m, out, runErr)
}

// failLine matches the line go test prints for a failed top-level test.
var failLine = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)

// classify turns one go test run of mutant m into a verdict.
func classify(m *mutant, out []byte, runErr error) (outcome, string) {
	if bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
		return broken, "the mutant does not build:\n" + string(out)
	}
	if bytes.Contains(out, []byte("[no tests to run]")) {
		return broken, "no named test ran:\n" + string(out)
	}
	var failed []string
	for _, sub := range failLine.FindAllSubmatch(out, -1) {
		for _, t := range m.tests {
			if string(sub[1]) == t {
				failed = append(failed, t)
			}
		}
	}
	switch {
	case len(failed) > 0 && m.match == nil:
		return killed, ""
	case len(failed) > 0 && m.match.Match(out):
		return killed, matchedLine(m.match, out)
	case len(failed) > 0:
		return survived, fmt.Sprintf("%s failed, but the output does not match %q:\n%s",
			strings.Join(failed, ", "), m.match, out)
	case runErr == nil:
		return survived, fmt.Sprintf("%s passed with the mutant in place:\n%s", strings.Join(m.tests, ", "), out)
	}
	return broken, fmt.Sprintf("go test failed without a named test failing (%v):\n%s", runErr, out)
}

// matchedLine returns the output line that holds re's first match.
func matchedLine(re *regexp.Regexp, out []byte) string {
	loc := re.FindIndex(out)
	start := bytes.LastIndexByte(out[:loc[0]], '\n') + 1
	end := len(out)
	if i := bytes.IndexByte(out[loc[1]:], '\n'); i >= 0 {
		end = loc[1] + i
	}
	return strings.TrimSpace(string(out[start:end]))
}

// indent prefixes every line of s with a tab.
func indent(s string) string {
	return "\t" + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n\t")
}
