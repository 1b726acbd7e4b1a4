package models

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runtime"
)

var update = flag.Bool("update", false, "rewrite testdata/import.golden")

// TestImportGolden pins what every frontend emits: the ArtifactKey (default
// BuildOptions, no tuning) of every zoo model at both sizes. The key hashes
// the canonical module encoding — graph, attrs and every constant — so a
// frontend change that alters any imported module, by one attribute or one
// weight bit, changes a line here.
func TestImportGolden(t *testing.T) {
	var b strings.Builder
	for _, size := range []struct {
		name string
		size Size
	}{{"lite", SizeLite}, {"full", SizeFull}} {
		for _, name := range Names() {
			spec, _ := Get(name)
			m, err := spec.Build(size.size)
			if err != nil {
				t.Fatalf("%s %s: build: %v", size.name, name, err)
			}
			key, err := runtime.ArtifactKey(m, runtime.BuildOptions{}, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", size.name, name, err)
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\n", size.name, name, key)
		}
	}
	golden := filepath.Join("testdata", "import.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -run ImportGolden -update` to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("imported modules differ from testdata/import.golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}
