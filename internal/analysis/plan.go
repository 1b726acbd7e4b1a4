package analysis

import "repro/internal/tensor"

// PlanView is the neutral, plain-data export of a runtime.ExecPlan that the
// plan-safety checker consumes. It deliberately carries only what the
// executor *does* — the node list with its reads and writes and the
// wavefront each node runs in, the slot table, and the storage assignment —
// and none of what the memory planner *concluded* (liveness intervals): the
// checker recomputes those, and the levels, from scratch so a planner bug
// cannot vouch for itself.
// runtime.(*ExecPlan).View produces one.
type PlanView struct {
	Nodes    []PlanNode
	Slots    []PlanSlot
	Storages []PlanStorage
	// Params are the graph-input slots in declaration order.
	Params []int
	// Outputs are the graph-output slots in result order.
	Outputs []int
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
	Args  []int
	Outs  []int
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

// Graph builds the def-use digraph of the plan: one node per PlanNode, an
// edge from each producing node to each consumer, in argument order. Slot
// indices must already have been range-checked.
func (v *PlanView) Graph() *Digraph {
	g := NewDigraph(len(v.Nodes))
	for _, n := range v.Nodes {
		for _, s := range n.Args {
			if p := v.Slots[s].Producer; p >= 0 {
				g.AddEdge(p, n.ID)
			}
		}
	}
	return g
}
