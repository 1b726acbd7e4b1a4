package runtime

import "repro/internal/analysis"

// View exports the plan as the plain-data form internal/analysis consumes.
// It carries only what the executor does — nodes with their reads/writes
// and the wavefront each runs in, the slot table, the storage assignment —
// and none of the planner's conclusions (slot liveness), so
// analysis.PlanSafety re-derives those independently. The slices are fresh
// copies; mutating the view (as the mutation tests do) never touches the
// live plan.
func (p *ExecPlan) View() *analysis.PlanView {
	v := &analysis.PlanView{
		Nodes:    make([]analysis.PlanNode, len(p.nodes)),
		Slots:    make([]analysis.PlanSlot, len(p.slots)),
		Storages: make([]analysis.PlanStorage, len(p.storages)),
		Params:   append([]int(nil), p.params...),
		Outputs:  append([]int(nil), p.outputs...),
	}
	for i, n := range p.nodes {
		vn := analysis.PlanNode{
			ID:    n.id,
			Kind:  n.kind.String(),
			Label: n.label,
			Args:  append([]int(nil), n.args...),
			Outs:  append([]int(nil), n.out...),
		}
		if n.sub != nil {
			vn.Sub = n.sub.View()
		}
		v.Nodes[i] = vn
	}
	// A node's level is its position in the wavefront list the executor
	// iterates, not the planner's per-node record of it.
	for lvl, ids := range p.levels {
		for _, id := range ids {
			v.Nodes[id].Level = lvl
		}
	}
	// Input-ness comes from params membership, not InputName: sub-plan
	// parameter slots are anonymous (the caller binds them positionally)
	// but are inputs all the same.
	isParam := make(map[int]bool, len(p.params))
	for _, s := range p.params {
		isParam[s] = true
	}
	for i, sl := range p.slots {
		v.Slots[i] = analysis.PlanSlot{
			DType:    sl.DType,
			Elems:    sl.Shape.Elems(),
			Storage:  sl.Storage,
			Producer: sl.Producer,
			IsOutput: sl.IsOutput,
			IsConst:  sl.Const != nil,
			IsInput:  isParam[i] || sl.InputName != "",
		}
	}
	for i, st := range p.storages {
		v.Storages[i] = analysis.PlanStorage{DType: st.DType, Elems: st.Elems}
	}
	return v
}
