package passes

import (
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/race"
	"repro/internal/relay"
)

// Deterministic cost pins for the partitioner on the largest zoo model. They
// count allocations, not time, so they hold on any host; under -race the
// detector's own bookkeeping allocates, so they are skipped there.

func densenetForPartition(t *testing.T) *relay.Module {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation pins are nondeterministic under -race")
	}
	spec, err := models.Get("densenet")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(models.SizeFull)
	if err != nil {
		t.Fatal(err)
	}
	m, err = Sequential(m, NewContext(3), SimplifyInference(), FoldConstant(), EliminateCommonSubexpr())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allocated runs f with one P, so no other goroutine allocates meanwhile, and
// returns the mallocs and bytes it cost.
func allocated(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// The BFS partitioner allocated ≈ 46 MB here, nearly all of it in per-attempt
// region and visited maps; the dense one needs under 1 MB.
func TestPartitionDensenetAllocationBudget(t *testing.T) {
	m := densenetForPartition(t)
	const budget = 2 << 20
	_, bytes := allocated(func() {
		if _, err := PartitionForCompiler(m, "ext", neuronLike, DefaultPartitionOptions()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PartitionForCompiler(densenet) allocated %d KB", bytes>>10)
	if bytes > budget {
		t.Errorf("PartitionForCompiler(densenet) allocated %d bytes, budget %d", bytes, budget)
	}
}

func TestTryMergeDoesNotAllocate(t *testing.T) {
	m := densenetForPartition(t)
	p := &partitioner{compiler: "ext", supported: neuronLike, opts: DefaultPartitionOptions()}
	p.analyze(m.Main().Body)
	type edge struct{ a, c int32 }
	var edges []edge
	p.supportedEdges(func(a, c int32) { edges = append(edges, edge{a, c}) })

	mallocs, bytes := allocated(func() {
		for _, e := range edges {
			p.tryMerge(e.a, e.c)
		}
	})
	t.Logf("%d merge attempts left %d regions", len(edges), len(p.collectRegions()))
	if len(edges) < 100 {
		t.Fatalf("densenet no longer exercises the merge path: %d attempts", len(edges))
	}
	if mallocs != 0 || bytes != 0 {
		t.Errorf("%d merge attempts allocated %d objects, %d bytes; want none", len(edges), mallocs, bytes)
	}
}
