package runtime_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/models"
	"repro/internal/race"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// These tests pin the package's output-aliasing contract (see the package
// doc): on the planned path GetOutput returns arena views that the next Run
// overwrites, and OutputCopy is the detached escape hatch.

func aliasingModule(t *testing.T) *runtime.GraphModule {
	t.Helper()
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetExecutor(runtime.ExecutorPlanned)
	return gm
}

// TestGetOutputViewInvalidatedByNextRun pins the sharp edge: the view
// returned by GetOutput is overwritten in place by the next Run.
func TestGetOutputViewInvalidatedByNextRun(t *testing.T) {
	gm := aliasingModule(t)
	name := gm.InputNames()[0]
	mod := gm.Lib().Module

	gm.SetInput(name, models.RandomInput(mod, 1))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	view, err := gm.GetOutput(0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := view.Clone() // what run 1 actually produced

	gm.SetInput(name, models.RandomInput(mod, 2))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	second := gm.MustOutput(0)

	// Different inputs must give different outputs, or the test proves
	// nothing.
	if tensor.MaxAbsDiff(snapshot, second) == 0 {
		t.Fatal("runs 1 and 2 produced identical outputs; pick different seeds")
	}
	// The old view now shows run 2's data: same backing storage.
	if d := tensor.MaxAbsDiff(view, second); d != 0 {
		t.Errorf("stale view differs from run 2 output by %g; expected the arena view to be overwritten in place", d)
	}
	if tensor.MaxAbsDiff(view, snapshot) == 0 {
		t.Error("view still holds run 1 data after run 2; the invalidation contract changed — update the package doc")
	}
}

// TestOutputCopyDetached pins OutputCopy: the copy survives subsequent Runs
// unchanged and shares nothing with the arena.
func TestOutputCopyDetached(t *testing.T) {
	gm := aliasingModule(t)
	name := gm.InputNames()[0]
	mod := gm.Lib().Module

	gm.SetInput(name, models.RandomInput(mod, 1))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	copied, err := gm.OutputCopy(0)
	if err != nil {
		t.Fatal(err)
	}
	want := copied.Clone()

	gm.SetInput(name, models.RandomInput(mod, 2))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(copied, want); d != 0 {
		t.Errorf("OutputCopy mutated by a later Run (diff %g); it must be detached from the arena", d)
	}

	// Out-of-range indices are errors, mirroring GetOutput.
	if _, err := gm.OutputCopy(99); err == nil {
		t.Error("OutputCopy(99) succeeded; want error")
	}
}

// TestInterpOutputsFresh documents (without promising) the interpreter
// behavior the contract calls out: interp results are freshly allocated, so
// a held result is not overwritten by the next Run.
func TestInterpOutputsFresh(t *testing.T) {
	gm := aliasingModule(t)
	gm.SetExecutor(runtime.ExecutorInterp)
	name := gm.InputNames()[0]
	mod := gm.Lib().Module

	gm.SetInput(name, models.RandomInput(mod, 1))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	first := gm.MustOutput(0)
	snapshot := first.Clone()
	gm.SetInput(name, models.RandomInput(mod, 2))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(first, snapshot); d != 0 {
		t.Errorf("interpreter output mutated by later Run (diff %g)", d)
	}
}

// byocEmotion builds the lite emotion model through the BYOC flow: one
// NeuroPilot region that produces the graph output.
func byocEmotion(t *testing.T) (*runtime.GraphModule, int) {
	t.Helper()
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lib.Plan()
	if err != nil {
		t.Fatal(err)
	}
	v := plan.View()
	out := -1
	for i, s := range v.Outputs {
		if p := v.Slots[s].Producer; p >= 0 && v.Nodes[p].Kind == analysis.PlanNodeExternal {
			out = i
			if v.Slots[s].Storage < 0 {
				t.Fatalf("region-produced output %d has no arena storage", i)
			}
			break
		}
	}
	if out < 0 {
		t.Fatal("no graph output is produced by a NeuroPilot region; pick another model")
	}
	gm := runtime.NewGraphModule(lib)
	gm.SetExecutor(runtime.ExecutorPlanned)
	return gm, out
}

// TestRegionOutputIsArenaView: a graph output a NeuroPilot region produces
// is a planned arena view like any other — the Neuron runtime writes it in
// place, so two Runs return the very same tensor.
func TestRegionOutputIsArenaView(t *testing.T) {
	gm, out := byocEmotion(t)
	name := gm.InputNames()[0]
	mod := gm.Lib().Module

	gm.SetInput(name, models.RandomInput(mod, 1))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	first := gm.MustOutput(out)
	snapshot := first.Clone()
	gm.SetInput(name, models.RandomInput(mod, 2))
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	second := gm.MustOutput(out)
	if first != second {
		t.Fatalf("region output is a different tensor after the second Run (%p, then %p); want one arena view", first, second)
	}
	if tensor.MaxAbsDiff(snapshot, second) == 0 {
		t.Fatal("runs 1 and 2 produced identical outputs; pick different seeds")
	}
}

// TestRegionRunAllocatesNoTensor pins a BYOC Run with profiling off. Its
// allocations are all the simulated-cost charge: the profile (3) and the
// Neuron Estimate walk over the region's operations (19: its producer slice
// and per-operation display names). No tensor is allocated: a region output
// allocated per call, as before the Neuron runtime wrote into arena views,
// adds 2 (header and data).
func TestRegionRunAllocatesNoTensor(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector")
	}
	const bound = 22
	gm, _ := byocEmotion(t)
	gm.SetInput(gm.InputNames()[0], models.RandomInput(gm.Lib().Module, 1))
	if err := gm.Run(); err != nil { // bind the plan state and the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("BYOC Run allocates %v objects, bound %d (the cost charge only)", allocs, bound)
	}
}
