package analysis

import (
	"fmt"

	"repro/internal/verify"
)

// PlanSafety is the independent memory-plan checker: it re-derives, from the
// node list alone, everything runtime's memory planner claims about a plan —
// dependency levels, value liveness, storage lifetimes — and audits the
// storage assignment against the recomputation. It is the one gate
// runtime.BuildPlan puts every plan through, and it consults none of the
// planner's recorded conclusions, so a planner bug cannot vouch for itself —
// which is what makes it a meaningful gate for the aggressive rewrites and
// searched placements the ROADMAP plans.
//
// Checks (error severity unless noted):
//
//	plan-slot-range      node/output slot and storage ids are in range
//	plan-topo-order      a node reads only slots produced by earlier nodes
//	plan-single-def      every slot is written exactly once, by its Producer
//	plan-read-undef      every read is of a produced, constant, or input slot
//	plan-output-def      every graph output is a produced, constant, or input
//	                     slot
//	plan-level-order     a node executes in the wavefront one past its deepest
//	                     producer's: the levels liveness is recomputed in are
//	                     the levels the executor runs, and no node shares a
//	                     wavefront with a value it reads
//	plan-storage-shape   a slot's dtype/element count matches its storage
//	plan-storage-alias   no two simultaneously-live slots share a storage,
//	                     under liveness recomputed here (includes the
//	                     planner's one-level release delay: intervals merely
//	                     touching at a level boundary are already unsafe,
//	                     because nodes of one level run concurrently)
//	plan-output-alias    graph outputs have dedicated storage — the
//	                     OutputCopy aliasing contract: an output view must
//	                     stay valid until the caller copies it out
//	plan-missing-storage every node's results are arena-backed, whatever
//	                     the node kind: op, primitive, or external region
//	                     (the Neuron runtime writes into the views it is
//	                     handed)
//	plan-dead-node       (warning) a node's results reach no graph output
func PlanSafety(v *PlanView) *verify.Result {
	res := &verify.Result{}
	planSafetyInto(v, "", res)
	return res
}

func planSafetyInto(v *PlanView, prefix string, res *verify.Result) {
	nodeWhere := func(n *PlanNode) string {
		return fmt.Sprintf("%snode %d (%s %s)", prefix, n.ID, n.Kind, n.Label)
	}
	slotWhere := func(i int) string { return fmt.Sprintf("%sslot %d", prefix, i) }
	outputWhere := func(i int) string { return fmt.Sprintf("%soutput %d", prefix, i) }

	// Pass 1: index sanity. Everything downstream dereferences slot and
	// storage ids, so a plan that fails here is reported and abandoned —
	// the remaining checks would index out of range, not find more bugs.
	indexOK := true
	slotOK := func(s int) bool { return s >= 0 && s < len(v.Slots) }
	for i := range v.Nodes {
		n := &v.Nodes[i]
		for _, s := range n.Args {
			if !slotOK(s) {
				res.Errorf("plan-slot-range", nodeWhere(n), "argument slot %d out of range [0,%d)", s, len(v.Slots))
				indexOK = false
			}
		}
		for _, s := range n.Outs {
			if !slotOK(s) {
				res.Errorf("plan-slot-range", nodeWhere(n), "output slot %d out of range [0,%d)", s, len(v.Slots))
				indexOK = false
			}
		}
	}
	for i, sl := range v.Slots {
		if sl.Storage >= len(v.Storages) {
			res.Errorf("plan-slot-range", slotWhere(i), "storage id %d out of range [0,%d)", sl.Storage, len(v.Storages))
			indexOK = false
		}
	}
	for i, s := range v.Outputs {
		if !slotOK(s) {
			res.Errorf("plan-slot-range", outputWhere(i), "slot %d out of range [0,%d)", s, len(v.Slots))
			indexOK = false
		}
	}
	if !indexOK {
		return
	}

	// Pass 2: definition discipline, execution order, storage shapes.
	defs := make([]int, len(v.Slots))
	for i := range v.Nodes {
		n := &v.Nodes[i]
		for _, s := range n.Args {
			sl := &v.Slots[s]
			switch {
			case sl.Producer >= len(v.Nodes):
				res.Errorf("plan-slot-range", nodeWhere(n), "slot %d names producer %d beyond the node list", s, sl.Producer)
				return
			case sl.Producer >= n.ID:
				res.Errorf("plan-topo-order", nodeWhere(n), "reads slot %d produced by node %d, which has not executed yet", s, sl.Producer)
			case sl.Producer < 0 && !sl.IsConst && !sl.IsInput:
				res.Errorf("plan-read-undef", nodeWhere(n), "reads slot %d, which is neither produced, constant, nor a graph input", s)
			}
		}
		for _, s := range n.Outs {
			defs[s]++
			if v.Slots[s].Producer != n.ID {
				res.Errorf("plan-single-def", nodeWhere(n), "writes slot %d whose recorded producer is node %d", s, v.Slots[s].Producer)
			}
			if v.Slots[s].Storage < 0 {
				res.Errorf("plan-missing-storage", nodeWhere(n),
					"result slot %d has no arena storage; the node would write into a nil view", s)
			}
		}
	}
	for i, sl := range v.Slots {
		where := slotWhere(i)
		switch {
		case sl.Producer < 0 && defs[i] != 0:
			res.Errorf("plan-single-def", where, "producer-less slot written by %d node(s)", defs[i])
		case sl.Producer >= 0 && defs[i] != 1:
			res.Errorf("plan-single-def", where, "slot written %d times, want exactly once", defs[i])
		}
		if sl.Storage >= 0 {
			st := v.Storages[sl.Storage]
			if st.DType != sl.DType || st.Elems != sl.Elems {
				res.Errorf("plan-storage-shape", where, "slot is %v x%d elems but storage %d is %v x%d",
					sl.DType, sl.Elems, sl.Storage, st.DType, st.Elems)
			}
		}
	}

	for i, s := range v.Outputs {
		if sl := &v.Slots[s]; sl.Producer < 0 && !sl.IsConst && !sl.IsInput {
			res.Errorf("plan-output-def", outputWhere(i), "slot %d is neither produced, constant, nor a graph input", s)
		}
	}

	// Pass 3: recompute dependency levels with a forward dataflow solve —
	// level(n) = 1 + max(level of producers), 0 with no producers — then
	// derive each slot's live interval [def level, deepest reading level]
	// from the actual reads. The only recorded level consulted is the one
	// the executor runs a node in, and only to demand it equals this one.
	g := v.Graph()
	levels, err := Solve(g, Problem[int]{
		Dir:  Forward,
		Init: func(int) int { return 0 },
		Transfer: func(n int, deps []int) int {
			lvl := 0
			for _, d := range deps {
				if d+1 > lvl {
					lvl = d + 1
				}
			}
			return lvl
		},
		Equal: func(a, b int) bool { return a == b },
	})
	if err != nil {
		// A read-before-write cycle: already reported as plan-topo-order.
		res.Errorf("plan-topo-order", prefix+"plan", "level recomputation diverged: %v", err)
		return
	}

	for i := range v.Nodes {
		if n := &v.Nodes[i]; n.Level != levels[n.ID] {
			res.Errorf("plan-level-order", nodeWhere(n),
				"executes in wavefront level %d, its producers put it at level %d", n.Level, levels[n.ID])
		}
	}

	defLevel := make([]int, len(v.Slots))
	lastUse := make([]int, len(v.Slots))
	for i, sl := range v.Slots {
		defLevel[i], lastUse[i] = -1, -1
		if sl.Producer >= 0 && sl.Producer < len(v.Nodes) {
			defLevel[i] = levels[sl.Producer]
			lastUse[i] = defLevel[i]
		}
	}
	for i := range v.Nodes {
		n := &v.Nodes[i]
		for _, s := range n.Args {
			if levels[n.ID] > lastUse[s] {
				lastUse[s] = levels[n.ID]
			}
		}
	}

	// Pass 4: aliasing. Arena-backed slots sharing a storage must have
	// disjoint — not merely non-overlapping, strictly separated — live
	// intervals: the executor runs a level's nodes concurrently and only
	// returns a freed storage to the pool one level after its last use, so
	// a reuse at the release level is already a race. Graph outputs are
	// live forever past the run (the caller reads them, OutputCopy detaches
	// them), so any sharing at all is an error for them.
	byStorage := make([][]int, len(v.Storages))
	for i, sl := range v.Slots {
		if sl.Storage >= 0 {
			byStorage[sl.Storage] = append(byStorage[sl.Storage], i)
		}
	}
	for sid, group := range byStorage {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				where := fmt.Sprintf("%sstorage %d", prefix, sid)
				if v.Slots[a].IsOutput || v.Slots[b].IsOutput {
					res.Errorf("plan-output-alias", where,
						"graph-output slot shares storage with another slot (slots %d, %d); "+
							"OutputCopy's contract requires outputs on dedicated buffers", a, b)
					continue
				}
				if defLevel[a] <= lastUse[b] && defLevel[b] <= lastUse[a] {
					res.Errorf("plan-storage-alias", where,
						"slots %d (live levels [%d,%d]) and %d (live levels [%d,%d]) share storage while simultaneously live",
						a, defLevel[a], lastUse[a], b, defLevel[b], lastUse[b])
				}
			}
		}
	}

	// Pass 5: needed-ness, a backward solve from the graph outputs. A node
	// none of whose results reaches an output is wasted work — legal, so a
	// warning, but the fusion and CSE passes should never emit one.
	outSlot := make([]bool, len(v.Slots))
	for _, s := range v.Outputs {
		outSlot[s] = true
	}
	needed, err := Solve(g, Problem[bool]{
		Dir: Backward,
		Init: func(n int) bool {
			for _, s := range v.Nodes[n].Outs {
				if outSlot[s] {
					return true
				}
			}
			return false
		},
		Transfer: func(n int, deps []bool) bool {
			for _, s := range v.Nodes[n].Outs {
				if outSlot[s] {
					return true
				}
			}
			for _, d := range deps {
				if d {
					return true
				}
			}
			return false
		},
		Equal: func(a, b bool) bool { return a == b },
	})
	if err == nil {
		for i := range v.Nodes {
			if !needed[i] {
				res.Warnf("plan-dead-node", nodeWhere(&v.Nodes[i]), "no graph output depends on this node's results")
			}
		}
	}

	// Primitive sub-plans obey the same invariants.
	for i := range v.Nodes {
		if v.Nodes[i].Sub != nil {
			planSafetyInto(v.Nodes[i].Sub, fmt.Sprintf("%snode %d sub-plan: ", prefix, v.Nodes[i].ID), res)
		}
	}
}
