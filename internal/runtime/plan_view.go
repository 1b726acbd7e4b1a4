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
	c := (*checkedPlan)(p)
	v := &analysis.PlanView{
		Nodes:    make([]analysis.PlanNode, len(p.nodes)),
		Slots:    make([]analysis.PlanSlot, len(p.slots)),
		Storages: make([]analysis.PlanStorage, len(p.storages)),
		Params:   append([]int32(nil), p.ids(p.params)...),
		Outputs:  append([]int32(nil), p.ids(p.outputs)...),
	}
	levels := make([]int32, len(p.nodes))
	c.NodeLevels(levels)
	for i := range p.nodes {
		n := &p.nodes[i]
		v.Nodes[i] = analysis.PlanNode{
			ID:    i,
			Kind:  n.kind.String(),
			Label: n.label,
			Level: int(levels[i]),
			Args:  append([]int32(nil), p.ids(n.args)...),
			Outs:  append([]int32(nil), p.ids(n.out)...),
		}
		if n.sub != nil {
			v.Nodes[i].Sub = n.sub.View()
		}
	}
	for i := range v.Slots {
		v.Slots[i] = c.Slot(i)
	}
	for i := range v.Storages {
		v.Storages[i] = c.Storage(i)
	}
	return v
}

// checkedPlan is an ExecPlan as analysis.PlanSafety reads it: in place,
// through the plan's own slabs, which BuildPlan's gate copies nothing of.
type checkedPlan ExecPlan

func (c *checkedPlan) NumNodes() int          { return len(c.nodes) }
func (c *checkedPlan) NumSlots() int          { return len(c.slots) }
func (c *checkedPlan) NumStorages() int       { return len(c.storages) }
func (c *checkedPlan) NodeArgs(n int) []int32 { return (*ExecPlan)(c).ids(c.nodes[n].args) }
func (c *checkedPlan) NodeOuts(n int) []int32 { return (*ExecPlan)(c).ids(c.nodes[n].out) }
func (c *checkedPlan) OutputSlots() []int32   { return (*ExecPlan)(c).ids(c.outputs) }

func (c *checkedPlan) NodeName(n int) (kind, label string) {
	return c.nodes[n].kind.String(), c.nodes[n].label
}

// NodeLevels reports a node's level as its position in the wavefront list
// the executor iterates, not the planner's per-node record of it.
func (c *checkedPlan) NodeLevels(levels []int32) {
	for i := range levels {
		levels[i] = -1
	}
	for l, lv := range c.levels {
		for _, id := range (*ExecPlan)(c).ids(lv) {
			if id >= 0 && int(id) < len(levels) {
				levels[id] = int32(l)
			}
		}
	}
}

func (c *checkedPlan) NodeSub(n int) analysis.Plan {
	if sub := c.nodes[n].sub; sub != nil {
		return (*checkedPlan)(sub)
	}
	return nil
}

// Slot reports input-ness from the param mark, not InputName: sub-plan
// parameter slots are anonymous (the caller binds them positionally) but
// are inputs all the same.
func (c *checkedPlan) Slot(i int) analysis.PlanSlot {
	sl := &c.slots[i]
	return analysis.PlanSlot{
		DType:    sl.Type.DType,
		Elems:    sl.Type.Shape.Elems(),
		Storage:  int(sl.Storage),
		Producer: int(sl.Producer),
		IsOutput: sl.IsOutput,
		IsConst:  sl.Const != nil,
		IsInput:  sl.IsParam,
	}
}

func (c *checkedPlan) Storage(i int) analysis.PlanStorage {
	return analysis.PlanStorage{DType: c.storages[i].DType, Elems: c.storages[i].Elems}
}
