package runtime_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/models"
	"repro/internal/runtime"
)

// planGoldenPath pins every lite zoo model's plan summary at both build
// kinds: node, level, slot and storage counts, arena and naive bytes, and a
// digest of the whole exported view, fused sub-plans included.
const planGoldenPath = "testdata/plan.golden"

// zooPlanSummaries renders one line per lite zoo model and build kind: the
// TVM-only build (every fused kernel a sub-plan) and the BYOC build.
func zooPlanSummaries(t *testing.T) string {
	t.Helper()
	kinds := []struct {
		name string
		opts runtime.BuildOptions
	}{
		{"tvm", runtime.BuildOptions{OptLevel: 3}},
		{"byoc", runtime.BuildOptions{OptLevel: 3, UseNIR: true}},
	}
	var sb strings.Builder
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kinds {
			lib, err := runtime.Build(m, k.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, k.name, err)
			}
			plan, err := lib.Plan()
			if err != nil {
				t.Fatalf("%s %s: plan: %v", name, k.name, err)
			}
			h := fnv.New64a()
			writeView(h, plan.View())
			fmt.Fprintf(&sb, "%s\t%s\t%s view %016x\n", name, k.name, plan, h.Sum64())
		}
	}
	return sb.String()
}

// writeView renders every fact of a plan view the executor acts on, sub-plans
// depth first, as text.
func writeView(w io.Writer, v *analysis.PlanView) {
	for _, n := range v.Nodes {
		fmt.Fprintf(w, "n%d %s %s l%d a%v o%v\n", n.ID, n.Kind, n.Label, n.Level, n.Args, n.Outs)
		if n.Sub != nil {
			writeView(w, n.Sub)
		}
	}
	for _, s := range v.Slots {
		fmt.Fprintf(w, "s %v %d st%d p%d %t %t %t\n", s.DType, s.Elems, s.Storage, s.Producer, s.IsOutput, s.IsConst, s.IsInput)
	}
	fmt.Fprintf(w, "%v p%v o%v\n", v.Storages, v.Params, v.Outputs)
}

// TestZooPlanGolden: the planner's output, summarized, is exactly the
// committed one for every zoo model. A change to how plans are built or
// stored must not move a count or a byte.
func TestZooPlanGolden(t *testing.T) {
	want, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := zooPlanSummaries(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", planGoldenPath, i+1, g, w)
		}
	}
}
