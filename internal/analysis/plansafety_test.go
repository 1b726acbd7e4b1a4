package analysis

import (
	"testing"

	"repro/internal/tensor"
)

// chainView builds a known-good 4-node plan with storage reuse:
//
//	n0: op a   args[in]      outs[2] storage 0   level 0
//	n1: op b   args[2]       outs[3] storage 1   level 1
//	n2: op c   args[3]       outs[4] storage 0   level 2  (reuse: slot 2
//	    died at level 1, two levels before this definition)
//	n3: op d   args[4,const] outs[5] storage 2   level 3  (graph output)
func chainView() *PlanView {
	return &PlanView{
		Nodes: []PlanNode{
			{ID: 0, Kind: PlanNodeOp, Label: "a", Level: 0, Args: []int32{0}, Outs: []int32{2}},
			{ID: 1, Kind: PlanNodeOp, Label: "b", Level: 1, Args: []int32{2}, Outs: []int32{3}},
			{ID: 2, Kind: PlanNodeOp, Label: "c", Level: 2, Args: []int32{3}, Outs: []int32{4}},
			{ID: 3, Kind: PlanNodeOp, Label: "d", Level: 3, Args: []int32{4, 1}, Outs: []int32{5}},
		},
		Slots: []PlanSlot{
			{DType: tensor.Float32, Elems: 16, Storage: -1, Producer: -1, IsInput: true},
			{DType: tensor.Float32, Elems: 16, Storage: -1, Producer: -1, IsConst: true},
			{DType: tensor.Float32, Elems: 16, Storage: 0, Producer: 0},
			{DType: tensor.Float32, Elems: 16, Storage: 1, Producer: 1},
			{DType: tensor.Float32, Elems: 16, Storage: 0, Producer: 2},
			{DType: tensor.Float32, Elems: 16, Storage: 2, Producer: 3, IsOutput: true},
		},
		Storages: []PlanStorage{
			{DType: tensor.Float32, Elems: 16},
			{DType: tensor.Float32, Elems: 16},
			{DType: tensor.Float32, Elems: 16},
		},
		Params:  []int32{0},
		Outputs: []int32{5},
	}
}

func TestPlanSafetyCleanView(t *testing.T) {
	res := PlanSafety(chainView())
	if !res.OK() {
		t.Fatalf("clean plan rejected:\n%v", res.Diags)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("clean plan produced warnings: %v", res.Diags)
	}
}

// TestPlanSafetyMutations corrupts the clean plan one invariant at a time
// and asserts the checker names the violated check.
func TestPlanSafetyMutations(t *testing.T) {
	cases := []struct {
		name   string
		check  string
		mutate func(v *PlanView)
	}{
		{
			"arg slot out of range", "plan-slot-range",
			func(v *PlanView) { v.Nodes[1].Args[0] = 99 },
		},
		{
			"storage id out of range", "plan-slot-range",
			func(v *PlanView) { v.Slots[3].Storage = 7 },
		},
		{
			"read of a later node's result", "plan-topo-order",
			func(v *PlanView) { v.Nodes[0].Args = []int32{3} },
		},
		{
			"double write", "plan-single-def",
			func(v *PlanView) { v.Nodes[1].Outs = append(v.Nodes[1].Outs, 4) },
		},
		{
			"read of an undefined slot", "plan-read-undef",
			func(v *PlanView) { v.Slots[0].IsInput = false },
		},
		{
			"slot/storage shape mismatch", "plan-storage-shape",
			func(v *PlanView) { v.Storages[1].Elems = 8 },
		},
		{
			// Slots 3 (live levels [1,2]) and 4 (defined level 2) collide
			// when slot 4 is rehomed onto storage 1 — the overlap case.
			"overlapping lifetimes on one storage", "plan-storage-alias",
			func(v *PlanView) { v.Slots[4].Storage = 1 },
		},
		{
			// Use-after-release: a late node re-reads slot 2 at level 3,
			// stretching its true liveness over slot 4's definition at
			// level 2 — the recorded reuse of storage 0 becomes a race.
			"use after release", "plan-storage-alias",
			func(v *PlanView) { v.Nodes[3].Args = append(v.Nodes[3].Args, 2) },
		},
		{
			"graph output on shared storage", "plan-output-alias",
			func(v *PlanView) { v.Slots[5].Storage = 1 },
		},
		{
			"op result without storage", "plan-missing-storage",
			func(v *PlanView) { v.Slots[3].Storage = -1 },
		},
		{
			// The storage rule is one rule for every node kind: the Neuron
			// runtime writes a region's results into arena views too.
			"external result off the arena", "plan-missing-storage",
			func(v *PlanView) {
				v.Nodes[2].Kind = PlanNodeExternal
				v.Slots[4].Storage = -1
			},
		},
		{
			// The executor would run node 1 concurrently with node 0,
			// whose result it reads.
			"node levelled with its producer", "plan-level-order",
			func(v *PlanView) { v.Nodes[1].Level = 0 },
		},
		{
			"undefined graph output", "plan-output-def",
			func(v *PlanView) {
				v.Slots = append(v.Slots, PlanSlot{DType: tensor.Float32, Elems: 16, Storage: -1, Producer: -1})
				v.Outputs[0] = int32(len(v.Slots) - 1)
			},
		},
		{
			"dead node", "plan-dead-node",
			func(v *PlanView) {
				// Detach node 1/2's chain from the output: node 3 reads the
				// input directly instead of slot 4.
				v.Nodes[3].Args = []int32{0, 1}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := chainView()
			tc.mutate(v)
			res := PlanSafety(v)
			if !res.Has(tc.check) {
				t.Fatalf("mutation not caught; want %s, got:\n%v", tc.check, res.Diags)
			}
		})
	}
}

// TestPlanSafetySubPlan nests the chain as a primitive's sub-plan and
// checks that corruption inside it is still found, with a prefixed Where.
func TestPlanSafetySubPlan(t *testing.T) {
	sub := chainView()
	sub.Slots[4].Storage = 1 // overlap inside the sub-plan
	v := &PlanView{
		Nodes: []PlanNode{
			{ID: 0, Kind: PlanNodePrimitive, Label: "fused", Args: []int32{0}, Outs: []int32{1}, Sub: sub},
		},
		Slots: []PlanSlot{
			{DType: tensor.Float32, Elems: 16, Storage: -1, Producer: -1, IsInput: true},
			{DType: tensor.Float32, Elems: 16, Storage: 0, Producer: 0, IsOutput: true},
		},
		Storages: []PlanStorage{{DType: tensor.Float32, Elems: 16}},
		Params:   []int32{0},
		Outputs:  []int32{1},
	}
	res := PlanSafety(v)
	if !res.Has("plan-storage-alias") {
		t.Fatalf("sub-plan corruption not caught: %v", res.Diags)
	}
	found := false
	for _, d := range res.Diags {
		if d.Check == "plan-storage-alias" && len(d.Where) > 0 && d.Where[:4] == "node" {
			found = true
		}
	}
	if !found {
		t.Errorf("sub-plan diagnostic lacks the nesting prefix: %v", res.Diags)
	}
}

// TestPlanSafetyExternalOutputs: an external region's result is arena-backed
// like any other node's, so a plan with a region and planned storage for it
// is clean.
func TestPlanSafetyExternalOutputs(t *testing.T) {
	v := &PlanView{
		Nodes: []PlanNode{
			{ID: 0, Kind: PlanNodeExternal, Label: "nir_0", Args: []int32{0}, Outs: []int32{1}},
			{ID: 1, Kind: PlanNodeOp, Label: "softmax", Level: 1, Args: []int32{1}, Outs: []int32{2}},
		},
		Slots: []PlanSlot{
			{DType: tensor.UInt8, Elems: 4, Storage: -1, Producer: -1, IsInput: true},
			{DType: tensor.UInt8, Elems: 4, Storage: 0, Producer: 0},
			{DType: tensor.Float32, Elems: 4, Storage: 1, Producer: 1, IsOutput: true},
		},
		Storages: []PlanStorage{{DType: tensor.UInt8, Elems: 4}, {DType: tensor.Float32, Elems: 4}},
		Params:   []int32{0},
		Outputs:  []int32{2},
	}
	if res := PlanSafety(v); !res.OK() {
		t.Fatalf("clean external plan rejected: %v", res.Diags)
	}
}
