package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tune"
)

// TestRun drives nptune through run, row by row: each row runs one or more
// command lines in a fresh directory and checks the last one's exit status,
// its output and, where it wrote one, the record file.
func TestRun(t *testing.T) {
	placement := func(model string, cost int64) tune.Record {
		return tune.Record{Schema: tune.SchemaVersion, Kind: tune.KindPlacement, Task: "pipeline|showcase",
			Choice: map[string]string{"emotion": "NP-only (APU)"}, CostNS: cost, Model: model}
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, dir string)
		runs  [][]string // "{dir}" in an argument is the row's directory
		code  int
		out   []string // substrings of the last run's stdout
		err   []string // substrings of the last run's stderr
		check func(t *testing.T, dir string)
	}{
		{
			name: "no mode",
			runs: [][]string{{}},
			code: 2,
			err:  []string{"-pipeline, -merge or -show is required", "Usage of nptune"},
		},
		{
			name: "pipeline writes what show prints",
			runs: [][]string{{"-pipeline", "-o", "{dir}/f.json"}, {"-show", "{dir}/f.json"}},
			out:  []string{"placement  pipeline|showcase", "object-detection=", "1 record(s)"},
		},
		{
			name: "merge keeps the lower cost",
			setup: func(t *testing.T, dir string) {
				writeRecords(t, filepath.Join(dir, "a.json"), placement("a", 2000))
				writeRecords(t, filepath.Join(dir, "b.json"), placement("b", 1000))
			},
			runs: [][]string{{"-merge", "{dir}/a.json,{dir}/b.json", "-o", "{dir}/m.json"}},
			out:  []string{"merged 2 file(s)", "(1 record(s))"},
			check: func(t *testing.T, dir string) {
				recs, err := tune.LoadRecords(filepath.Join(dir, "m.json"))
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 1 || recs[0].Model != "b" || recs[0].CostNS != 1000 {
					t.Fatalf("merged %+v, want b's 1000 ns record alone", recs)
				}
			},
		},
		{
			name: "kernel records refused",
			setup: func(t *testing.T, dir string) {
				line := `{"schema":2,"kind":"kernel","task":"nn.conv2d|d=1x1x1x32|w=64x3x3x32|s=1x1|l=1x1|p=1,1,1,1|g=1|float32",` +
					`"config":{"conv":"direct"},"cost_ns":2621,"default_ns":3983,"model":"inception v3"}` + "\n"
				if err := os.WriteFile(filepath.Join(dir, "k.json"), []byte(line), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			runs: [][]string{{"-show", "{dir}/k.json"}},
			code: 1,
			err:  []string{`record kind "kernel"`, "k.json:1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.setup != nil {
				tc.setup(t, dir)
			}
			var stdout, stderr bytes.Buffer
			code := 0
			for i, args := range tc.runs {
				stdout.Reset()
				stderr.Reset()
				for j := range args {
					args[j] = strings.ReplaceAll(args[j], "{dir}", dir)
				}
				if code = run(args, &stdout, &stderr); code != 0 && i < len(tc.runs)-1 {
					t.Fatalf("%v: exit %d; stderr:\n%s", args, code, stderr.String())
				}
			}
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			for _, want := range tc.out {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.err {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			if tc.check != nil {
				tc.check(t, dir)
			}
		})
	}
}

func writeRecords(t *testing.T, path string, recs ...tune.Record) {
	t.Helper()
	if err := tune.WriteRecords(path, recs); err != nil {
		t.Fatal(err)
	}
}
