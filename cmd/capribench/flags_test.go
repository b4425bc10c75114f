package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFlagErrors re-executes the test binary as the command (main runs when
// CAPRI_MAIN_ARGS is set) and pins the exit status and message of each
// rejected flag combination.
func TestFlagErrors(t *testing.T) {
	if args, ok := os.LookupEnv("CAPRI_MAIN_ARGS"); ok {
		os.Args = append([]string{"capribench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		args     []string
		code     int
		wantText []string
	}{
		{[]string{"-scale", "0"}, 1, []string{"-scale must be >= 1, got 0"}},
		{[]string{"-list", "-verify", "/nonexistent.md"}, 1, []string{"-verify is honoured only with -explain or -sweepcheck"}},
		{[]string{"-audit", "-verify", "/nonexistent.md"}, 1, []string{"-verify is honoured only"}},
		{[]string{"-list", "-record-out", "/nonexistent-dir"}, 1, []string{"-record-out is honoured only with -audit"}},
		{[]string{"-sweepcheck", "-record-out", "/nonexistent-dir"}, 1, []string{"-record-out is honoured only"}},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlagErrors$")
		cmd.Env = append(os.Environ(), "CAPRI_MAIN_ARGS="+strings.Join(tc.args, " "))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("%v: err %v, want exit status %d\n%s", tc.args, err, tc.code, out)
			continue
		}
		for _, w := range tc.wantText {
			if !strings.Contains(string(out), w) {
				t.Errorf("%v: output does not mention %q:\n%s", tc.args, w, out)
			}
		}
	}
}
