package analysis

import "repro/internal/tensor"

// Plan is the read access PlanSafety audits an execution plan through. It
// exposes only what the executor *does* — the node list with its reads and
// writes and the wavefront each node runs in, the slot table, and the
// storage assignment — and none of what the memory planner *concluded*
// (liveness intervals): the checker recomputes those, and the levels, from
// scratch so a planner bug cannot vouch for itself. Node ids are the
// execution (topological) order, 0 … NumNodes()-1.
//
// runtime.BuildPlan passes its plan's own arrays; *PlanView is the
// plain-data copy tests mutate and npc audits.
type Plan interface {
	NumNodes() int
	NumSlots() int
	NumStorages() int
	// NodeArgs and NodeOuts are the slots node n reads and writes.
	NodeArgs(n int) []int32
	NodeOuts(n int) []int32
	// NodeLevels writes into levels[n], for every node, the wavefront the
	// executor runs node n in, -1 for a node it never runs.
	NodeLevels(levels []int32)
	// NodeSub is the serial sub-plan of a fused primitive node, nil for
	// any other node.
	NodeSub(n int) Plan
	// NodeName names node n in diagnostics.
	NodeName(n int) (kind, label string)
	Slot(i int) PlanSlot
	Storage(i int) PlanStorage
	// OutputSlots are the graph-output slots in result order.
	OutputSlots() []int32
}

// PlanView is the neutral, plain-data export of a runtime.ExecPlan:
// runtime.(*ExecPlan).View produces one, a fresh copy a test may corrupt
// without touching the plan.
type PlanView struct {
	Nodes    []PlanNode
	Slots    []PlanSlot
	Storages []PlanStorage
	// Params are the graph-input slots in declaration order.
	Params []int32
	// Outputs are the graph-output slots in result order.
	Outputs []int32
}

// Node kinds, mirroring the executor's discriminator.
const (
	PlanNodeOp        = "op"
	PlanNodePrimitive = "primitive"
	PlanNodeExternal  = "external"
)

// PlanNode is one executable step: it reads the Args slots and writes the
// Outs slots. Node ids are the execution (topological) order.
type PlanNode struct {
	ID    int
	Kind  string // PlanNodeOp | PlanNodePrimitive | PlanNodeExternal
	Label string
	// Level is the wavefront the executor runs the node in: nodes of one
	// level run concurrently, levels run in order.
	Level int
	Args  []int32
	Outs  []int32
	// Sub is the serial sub-plan of a fused primitive node; it is audited
	// recursively under the same invariants.
	Sub *PlanView
}

// PlanSlot describes one value slot.
type PlanSlot struct {
	DType tensor.DType
	Elems int
	// Storage is the arena buffer backing the slot, -1 when the value is
	// externally owned (graph inputs and constants).
	Storage int
	// Producer is the defining node id, -1 for inputs and constants.
	Producer int
	IsOutput bool
	IsConst  bool
	IsInput  bool
}

// PlanStorage is one arena buffer.
type PlanStorage struct {
	DType tensor.DType
	Elems int
}

// The view is a Plan.
func (v *PlanView) NumNodes() int             { return len(v.Nodes) }
func (v *PlanView) NumSlots() int             { return len(v.Slots) }
func (v *PlanView) NumStorages() int          { return len(v.Storages) }
func (v *PlanView) NodeArgs(n int) []int32    { return v.Nodes[n].Args }
func (v *PlanView) NodeOuts(n int) []int32    { return v.Nodes[n].Outs }
func (v *PlanView) Slot(i int) PlanSlot       { return v.Slots[i] }
func (v *PlanView) Storage(i int) PlanStorage { return v.Storages[i] }
func (v *PlanView) OutputSlots() []int32      { return v.Outputs }

func (v *PlanView) NodeName(n int) (kind, label string) {
	return v.Nodes[n].Kind, v.Nodes[n].Label
}

func (v *PlanView) NodeLevels(levels []int32) {
	for i := range v.Nodes {
		levels[i] = int32(v.Nodes[i].Level)
	}
}

func (v *PlanView) NodeSub(n int) Plan {
	if s := v.Nodes[n].Sub; s != nil {
		return s
	}
	return nil
}
