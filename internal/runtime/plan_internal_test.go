package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// reluChainLib builds a 4-op elementwise chain, unfused, as verifier prey.
func reluChainLib(t *testing.T) *Lib {
	t.Helper()
	data := relay.NewVar("data", relay.TType(tensor.Float32, 1, 8, 8, 4))
	x := relay.Expr(data)
	for i := 0; i < 4; i++ {
		x = relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	}
	lib, err := Build(relay.NewModule(relay.NewFunc([]*relay.Var{data}, x)), BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// planSafety audits plan both ways PlanSafety reads one — in place, as
// BuildPlan's gate does, and through a View — and fails unless the two
// report the same diagnostics.
func planSafety(t *testing.T, plan *ExecPlan) error {
	t.Helper()
	inPlace := analysis.PlanSafety((*checkedPlan)(plan))
	viewed := analysis.PlanSafety(plan.View())
	if fmt.Sprint(inPlace.Diags) != fmt.Sprint(viewed.Diags) {
		t.Errorf("in-place audit reports\n%v\nthe view's reports\n%v", inPlace.Diags, viewed.Diags)
	}
	return inPlace.Err()
}

func TestVerifyPlanAcceptsFreshPlan(t *testing.T) {
	plan, err := BuildPlan(reluChainLib(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := planSafety(t, plan); err != nil {
		t.Fatalf("fresh plan rejected:\n%v", err)
	}
}

func TestVerifyPlanCatchesStorageAliasing(t *testing.T) {
	plan, err := BuildPlan(reluChainLib(t))
	if err != nil {
		t.Fatal(err)
	}
	// Force the first two intermediates — live at overlapping levels — onto
	// one storage.
	var first int32 = -1
	tampered := false
	for i := range plan.slots {
		sl := &plan.slots[i]
		if sl.Storage < 0 || sl.IsOutput {
			continue
		}
		if first < 0 {
			first = sl.Storage
			continue
		}
		if sl.Storage != first {
			sl.Storage = first
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("test setup: found no second storage to alias")
	}
	err = planSafety(t, plan)
	if err == nil {
		t.Fatal("verifier accepted overlapping live ranges on one storage")
	}
	if !strings.Contains(err.Error(), "plan-storage-alias") {
		t.Errorf("expected plan-storage-alias diagnostic, got: %v", err)
	}
}

func TestVerifyPlanCatchesTopoViolation(t *testing.T) {
	plan, err := BuildPlan(reluChainLib(t))
	if err != nil {
		t.Fatal(err)
	}
	// Claim the last node produced the slot the first node reads.
	firstArg := plan.index[plan.nodes[0].args.lo]
	plan.slots[firstArg].Producer = int32(len(plan.nodes) - 1)
	err = planSafety(t, plan)
	if err == nil {
		t.Fatal("verifier accepted a node reading a later node's output")
	}
	if !strings.Contains(err.Error(), "plan-topo-order") {
		t.Errorf("expected plan-topo-order diagnostic, got: %v", err)
	}
}

func TestVerifyPlanCatchesStorageTypeMismatch(t *testing.T) {
	plan, err := BuildPlan(reluChainLib(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range plan.slots {
		if sl.Storage >= 0 {
			plan.storages[sl.Storage].Elems++
			break
		}
	}
	err = planSafety(t, plan)
	if err == nil {
		t.Fatal("verifier accepted a storage smaller than its slot")
	}
	if !strings.Contains(err.Error(), "plan-storage-shape") {
		t.Errorf("expected plan-storage-shape diagnostic, got: %v", err)
	}
}

// The view must export the wavefront the executor iterates, not the
// planner's per-node record: moving a node into its producer's wavefront
// changes nothing but plan.levels, and has to be refused.
func TestVerifyPlanCatchesLevelViolation(t *testing.T) {
	plan, err := BuildPlan(reluChainLib(t))
	if err != nil {
		t.Fatal(err)
	}
	// Each level of the chain is one node and the levels' ids are adjacent
	// in the index slab, so widening level 0 by one id moves level 1's.
	if plan.levels[0].hi != plan.levels[1].lo {
		t.Fatal("test setup: level spans are not adjacent")
	}
	plan.levels[0].hi++
	plan.levels[1].lo++
	err = planSafety(t, plan)
	if err == nil {
		t.Fatal("verifier accepted a node running in its producer's wavefront")
	}
	if !strings.Contains(err.Error(), "plan-level-order") {
		t.Errorf("expected plan-level-order diagnostic, got: %v", err)
	}
}
