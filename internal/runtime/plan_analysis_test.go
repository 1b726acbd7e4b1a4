package runtime_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/models"
	"repro/internal/runtime"
)

// TestZooPlanSafety proves every zoo model's built ExecPlan clean under the
// independent plan-safety checker: liveness is recomputed from scratch over
// the exported PlanView, so agreement here means the planner's interval
// bookkeeping and the checker's recomputation coincide on real plans. Both
// build kinds: the BYOC plans carry the regions, the TVM-only plans a
// fused sub-plan per kernel.
func TestZooPlanSafety(t *testing.T) {
	kinds := []struct {
		name string
		opts runtime.BuildOptions
	}{
		{"byoc", runtime.BuildOptions{OptLevel: 3, UseNIR: true}},
		{"tvm", runtime.BuildOptions{OptLevel: 3}},
	}
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, k := range kinds {
				t.Run(k.name, func(t *testing.T) {
					lib, err := runtime.Build(m, k.opts)
					if err != nil {
						t.Fatalf("runtime.Build: %v", err)
					}
					plan, err := lib.Plan()
					if err != nil {
						t.Fatalf("plan: %v", err)
					}
					res := analysis.PlanSafety(plan.View())
					if err := res.Err(); err != nil {
						t.Errorf("plan safety: %v", err)
					}
					for _, d := range res.Diags {
						t.Logf("diag: %v", d)
					}
				})
			}
		})
	}
}

// TestZooPlanSafetyRejectsCorruption corrupts a real model's exported view —
// not a synthetic fixture — and checks the analysis still rejects it. This is
// the end-to-end mutation test: the view of a genuine planner output, with a
// single storage rehomed to force overlapping lifetimes.
func TestZooPlanSafetyRejectsCorruption(t *testing.T) {
	spec, err := models.Get(models.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(models.SizeLite)
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

	// Find two distinct arena storages and collapse them: every slot on the
	// second storage moves to the first. On any plan with at least two
	// concurrently-live arena values this makes lifetimes collide.
	v := plan.View()
	if len(v.Storages) < 2 {
		t.Skip("plan has fewer than two storages; nothing to collide")
	}
	var first, second = -1, -1
	for _, sl := range v.Slots {
		if sl.Storage < 0 {
			continue
		}
		if first == -1 {
			first = sl.Storage
		} else if sl.Storage != first {
			second = sl.Storage
			break
		}
	}
	if second == -1 {
		t.Skip("all slots share one storage")
	}
	if v.Storages[first].Elems < v.Storages[second].Elems {
		first, second = second, first
	}
	for i := range v.Slots {
		if v.Slots[i].Storage == second {
			v.Slots[i].Storage = first
		}
	}
	res := analysis.PlanSafety(v)
	if res.OK() {
		t.Fatalf("collapsed storages accepted; diags: %v", res.Diags)
	}
	wantOne := false
	for _, d := range res.Diags {
		switch d.Check {
		case "plan-storage-alias", "plan-storage-shape", "plan-output-alias":
			wantOne = true
		}
	}
	if !wantOne {
		t.Errorf("rejection cites unexpected checks: %v", res.Diags)
	}
}

// TestZooPlanSafetyRejectsLateReader stretches a real slot's liveness past
// its storage's recorded release by appending it to the final node's reads.
func TestZooPlanSafetyRejectsLateReader(t *testing.T) {
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build(models.SizeLite)
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

		// A reusable storage means some slot's arena space is redefined by a
		// later slot. Find such a pair and make the last node read the early
		// slot: its true liveness now spans the later definition.
		type def struct{ slot, node int }
		byStorage := map[int][]def{}
		for i, sl := range v.Slots {
			if sl.Storage >= 0 && sl.Producer >= 0 {
				byStorage[sl.Storage] = append(byStorage[sl.Storage], def{i, sl.Producer})
			}
		}
		victim := -1
		for _, defs := range byStorage {
			if len(defs) >= 2 {
				victim = defs[0].slot
				break
			}
		}
		if victim < 0 {
			continue // this model's plan never reuses storage
		}
		last := &v.Nodes[len(v.Nodes)-1]
		last.Args = append(last.Args, int32(victim))
		if res := analysis.PlanSafety(v); res.OK() {
			t.Errorf("%s: use-after-release accepted", name)
		}
		return
	}
	t.Skip("no zoo plan reuses storage at lite size")
}
