package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins the exact bytes of `showcase -frames 12` — per-frame
// verdicts and simulated stage costs; no wall time is printed — to
// testdata/frames12.golden. There is no update flag: a moved byte is a
// changed model, kernel or decode, and a change that means to move one
// rewrites the file and says why.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/frames12.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-frames", "12"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// TestRunUsage: usage errors exit 2 with a diagnostic and build nothing.
func TestRunUsage(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		err  string
	}{
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"zero frames", []string{"-frames", "0"}, "-frames is 0, want at least 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.err) {
				t.Fatalf("stderr %q, want it to contain %q", stderr.String(), tc.err)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout %q, want nothing", stdout.String())
			}
		})
	}
}
