package runtime_test

import (
	goruntime "runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/race"
	"repro/internal/runtime"
)

// TestBuildPlanAllocs pins what lowering a lite TVM-only zoo model costs —
// the plan shape whose every fused kernel is a sub-plan. A warm BuildPlan
// allocates the plan's slabs, a slab set and a label per sub-plan, and the
// gate's scratch: ≈ 340 objects and ≈ 305 bytes a node (209 nodes, sub-plan
// nodes counted) for densenet. It was 5 513 objects and 1 517 bytes a node
// while every node and slot was a heap object of its own, every sub-plan
// had a builder and maps of its own, and the gate audited a deep copy.
func TestBuildPlanAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	const maxObjects, maxBytesPerNode = 380, 350
	m, err := models.BuildDenseNet(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.BuildPlan(lib) // warms the builder pool
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, n := range plan.View().Nodes {
		nodes++
		if n.Sub != nil {
			nodes += len(n.Sub.Nodes)
		}
	}
	const runs = 50
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := runtime.BuildPlan(lib); err != nil {
			t.Fatal(err)
		}
	}
	goruntime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(nodes)
	t.Logf("%d nodes: %.1f objects, %.1f bytes a node", nodes, objects, perNode)
	if objects > maxObjects {
		t.Errorf("BuildPlan allocates %.1f objects per plan, want at most %d", objects, maxObjects)
	}
	if perNode > maxBytesPerNode {
		t.Errorf("BuildPlan allocates %.1f bytes per node, want at most %d", perNode, maxBytesPerNode)
	}
}
