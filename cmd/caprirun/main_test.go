package main

import (
	"strings"
	"testing"
)

// TestCheckBaseline pins that -baseline rejects every flag that needs the
// persistence protocol, naming each one, and accepts the rest.
func TestCheckBaseline(t *testing.T) {
	if err := checkBaseline(0, "", ""); err != nil {
		t.Errorf("plain -baseline rejected: %v", err)
	}
	for _, tc := range []struct {
		crashAt     uint64
		img, trace  string
		wantFlagged []string
	}{
		{100, "", "", []string{"-crash"}},
		{0, "s.img", "", []string{"-image"}},
		{0, "", "t.log", []string{"-trace"}},
		{100, "s.img", "t.json", []string{"-crash", "-image", "-trace"}},
	} {
		err := checkBaseline(tc.crashAt, tc.img, tc.trace)
		if err == nil {
			t.Errorf("-baseline with %v accepted", tc.wantFlagged)
			continue
		}
		for _, f := range tc.wantFlagged {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("error %q does not name %s", err, f)
			}
		}
	}
}
