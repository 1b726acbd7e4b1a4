package runtime_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/topi"
	"repro/internal/tune"
)

// TestPlanCountsTunedNodes: lowering consults the installed tuning table —
// a plan built with a strategy flip for one of the model's tasks reports it
// in TunedNodes, and a plan built with no table reports zero
// (the graceful-fallback path).
func TestPlanCountsTunedNodes(t *testing.T) {
	mod, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	var ierr error
	mod.Functions(func(name string, f *relay.Function) {
		if ierr == nil {
			_, ierr = relay.InferTypes(f)
		}
	})
	if ierr != nil {
		t.Fatal(ierr)
	}
	tasks := tune.Tasks(mod)
	if len(tasks) == 0 {
		t.Fatal("no tunable tasks extracted from the emotion model")
	}

	tbl := topi.NewTuningTable()
	tbl.Set(tasks[0], tune.Candidate(tasks[0]))
	prev := topi.SetTuning(tbl)
	defer topi.SetTuning(prev)

	lib, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, UseNIR: false})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lib.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.TunedNodes < 1 {
		t.Errorf("plan lowered under a tuning table reports %d tuned nodes, want >= 1", plan.TunedNodes)
	}

	topi.SetTuning(nil)
	lib2, err := runtime.Build(mod, runtime.BuildOptions{OptLevel: 3, UseNIR: false})
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := lib2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.TunedNodes != 0 {
		t.Errorf("plan lowered without a tuning table reports %d tuned nodes, want 0", plan2.TunedNodes)
	}
}
