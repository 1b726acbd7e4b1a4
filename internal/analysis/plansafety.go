package analysis

import (
	"fmt"

	"repro/internal/verify"
)

// PlanSafety is the independent memory-plan checker: it re-derives, from the
// node list alone, everything runtime's memory planner claims about a plan —
// dependency levels, value liveness, storage lifetimes — and audits the
// storage assignment against the recomputation. It is the one gate
// runtime.BuildPlan puts every plan through, reading the plan's own arrays,
// and it consults none of the planner's recorded conclusions, so a planner
// bug cannot vouch for itself — which is what makes it a meaningful gate for
// the aggressive rewrites and searched placements the ROADMAP plans. A clean
// plan costs O(nodes + slots) words of scratch and no formatting: location
// strings are built only for the diagnostics reported.
//
// Checks (error severity unless noted):
//
//	plan-slot-range      node/output slot and storage ids are in range
//	plan-topo-order      a node reads only slots produced by earlier nodes
//	                     (a plan that fails it gets no level, liveness or
//	                     sub-plan checks: they assume the order)
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
func PlanSafety(p Plan) *verify.Result {
	c := planChecker{res: &verify.Result{}}
	c.check(p)
	return c.res
}

// planChecker audits one plan and, recursively, its sub-plans into res.
type planChecker struct {
	res *verify.Result
	// path holds the ids of the primitive nodes whose sub-plan is being
	// audited, outermost first: the prefix of every location.
	path []int
	// scratch is reused by every plan of the recursion: a parent's passes
	// are over before its sub-plans are audited.
	scratch []int32
}

func (c *planChecker) prefix() string {
	s := ""
	for _, id := range c.path {
		s += fmt.Sprintf("node %d sub-plan: ", id)
	}
	return s
}

func (c *planChecker) nodeWhere(p Plan, n int) string {
	kind, label := p.NodeName(n)
	return fmt.Sprintf("%snode %d (%s %s)", c.prefix(), n, kind, label)
}

func (c *planChecker) slotWhere(i int) string   { return fmt.Sprintf("%sslot %d", c.prefix(), i) }
func (c *planChecker) outputWhere(i int) string { return fmt.Sprintf("%soutput %d", c.prefix(), i) }

// words returns n zeroed scratch words.
func (c *planChecker) words(n int) []int32 {
	if cap(c.scratch) < n {
		c.scratch = make([]int32, n)
	}
	w := c.scratch[:n]
	clear(w)
	return w
}

// Slot flags, cached per slot by the checker's first pass.
const (
	slotOutput = 1 << iota
	slotConst
	slotInput
)

func (c *planChecker) check(p Plan) {
	res := c.res
	nodes, slots, storages := p.NumNodes(), p.NumSlots(), p.NumStorages()
	outputs := p.OutputSlots()

	// Scratch, O(nodes + slots) words: per slot its producer, storage and
	// flags — read through the Plan once, not at every reference — its
	// write count, def level, last use and bucket entry; per node its
	// recomputed and its executed level and whether an output needs it;
	// per storage a bucket bound.
	w := c.words(7*slots + 3*nodes + storages + 1)
	cut := func(n int) []int32 {
		s := w[:n:n]
		w = w[n:]
		return s
	}
	prod, stor, flags := cut(slots), cut(slots), cut(slots)
	defs, defLevel, lastUse, byStorage := cut(slots), cut(slots), cut(slots), cut(slots)
	levels, executed, needed := cut(nodes), cut(nodes), cut(nodes)
	bounds := cut(storages + 1)

	// Pass 1: index sanity. Everything downstream dereferences slot and
	// storage ids, so a plan that fails here is reported and abandoned —
	// the remaining checks would index out of range, not find more bugs.
	indexOK := true
	slotOK := func(s int32) bool { return s >= 0 && int(s) < slots }
	for n := 0; n < nodes; n++ {
		for _, s := range p.NodeArgs(n) {
			if !slotOK(s) {
				res.Errorf("plan-slot-range", c.nodeWhere(p, n), "argument slot %d out of range [0,%d)", s, slots)
				indexOK = false
			}
		}
		for _, s := range p.NodeOuts(n) {
			if !slotOK(s) {
				res.Errorf("plan-slot-range", c.nodeWhere(p, n), "output slot %d out of range [0,%d)", s, slots)
				indexOK = false
			}
		}
	}
	for i := 0; i < slots; i++ {
		sl := p.Slot(i)
		if sl.Storage >= storages {
			res.Errorf("plan-slot-range", c.slotWhere(i), "storage id %d out of range [0,%d)", sl.Storage, storages)
			indexOK = false
		}
		// A producer beyond the node list reads as nodes, any id below 0
		// as -1; the diagnostics quote the recorded one.
		prod[i] = int32(max(-1, min(sl.Producer, nodes)))
		stor[i] = int32(max(-1, min(sl.Storage, storages)))
		if sl.IsOutput {
			flags[i] |= slotOutput
		}
		if sl.IsConst {
			flags[i] |= slotConst
		}
		if sl.IsInput {
			flags[i] |= slotInput
		}
	}
	for i, s := range outputs {
		if !slotOK(s) {
			res.Errorf("plan-slot-range", c.outputWhere(i), "slot %d out of range [0,%d)", s, slots)
			indexOK = false
		}
	}
	if !indexOK {
		return
	}
	// defined reports whether a producer-less slot holds a value anyway.
	defined := func(s int32) bool { return flags[s]&(slotConst|slotInput) != 0 }

	// Pass 2: definition discipline, execution order, storage shapes.
	topoOK := true
	for n := 0; n < nodes; n++ {
		for _, s := range p.NodeArgs(n) {
			switch pr := int(prod[s]); {
			case pr >= nodes:
				res.Errorf("plan-slot-range", c.nodeWhere(p, n), "slot %d names producer %d beyond the node list", s, p.Slot(int(s)).Producer)
				return
			case pr >= n:
				res.Errorf("plan-topo-order", c.nodeWhere(p, n), "reads slot %d produced by node %d, which has not executed yet", s, pr)
				topoOK = false
			case pr < 0 && !defined(s):
				res.Errorf("plan-read-undef", c.nodeWhere(p, n), "reads slot %d, which is neither produced, constant, nor a graph input", s)
			}
		}
		for _, s := range p.NodeOuts(n) {
			defs[s]++
			if int(prod[s]) != n {
				res.Errorf("plan-single-def", c.nodeWhere(p, n), "writes slot %d whose recorded producer is node %d", s, p.Slot(int(s)).Producer)
			}
			if stor[s] < 0 {
				res.Errorf("plan-missing-storage", c.nodeWhere(p, n),
					"result slot %d has no arena storage; the node would write into a nil view", s)
			}
		}
	}
	for i := 0; i < slots; i++ {
		switch {
		case prod[i] < 0 && defs[i] != 0:
			res.Errorf("plan-single-def", c.slotWhere(i), "producer-less slot written by %d node(s)", defs[i])
		case prod[i] >= 0 && defs[i] != 1:
			res.Errorf("plan-single-def", c.slotWhere(i), "slot written %d times, want exactly once", defs[i])
		}
		if stor[i] >= 0 {
			sl, st := p.Slot(i), p.Storage(int(stor[i]))
			if st.DType != sl.DType || st.Elems != sl.Elems {
				res.Errorf("plan-storage-shape", c.slotWhere(i), "slot is %v x%d elems but storage %d is %v x%d",
					sl.DType, sl.Elems, sl.Storage, st.DType, st.Elems)
			}
		}
	}

	for i, s := range outputs {
		if prod[s] < 0 && !defined(s) {
			res.Errorf("plan-output-def", c.outputWhere(i), "slot %d is neither produced, constant, nor a graph input", s)
		}
	}
	if !topoOK {
		return
	}

	// Pass 3: recompute dependency levels — level(n) = 1 + max(level of
	// producers), 0 with no producers — in one pass in id order, which the
	// topological order makes a complete one; then derive each slot's live
	// interval [def level, deepest reading level] from the actual reads.
	// The only recorded level consulted is the one the executor runs a node
	// in, and only to demand it equals this one.
	for n := 0; n < nodes; n++ {
		lvl := int32(0)
		for _, s := range p.NodeArgs(n) {
			if pr := prod[s]; pr >= 0 && levels[pr]+1 > lvl {
				lvl = levels[pr] + 1
			}
		}
		levels[n] = lvl
	}
	p.NodeLevels(executed)
	for n := 0; n < nodes; n++ {
		if executed[n] != levels[n] {
			res.Errorf("plan-level-order", c.nodeWhere(p, n),
				"executes in wavefront level %d, its producers put it at level %d", executed[n], levels[n])
		}
	}

	for i := 0; i < slots; i++ {
		defLevel[i], lastUse[i] = -1, -1
		if pr := prod[i]; pr >= 0 {
			defLevel[i] = levels[pr]
			lastUse[i] = defLevel[i]
		}
	}
	for n := 0; n < nodes; n++ {
		for _, s := range p.NodeArgs(n) {
			lastUse[s] = max(lastUse[s], levels[n])
		}
	}

	// Pass 4: aliasing. Arena-backed slots sharing a storage must have
	// disjoint — not merely non-overlapping, strictly separated — live
	// intervals: the executor runs a level's nodes concurrently and only
	// returns a freed storage to the pool one level after its last use, so
	// a reuse at the release level is already a race. Graph outputs are
	// live forever past the run (the caller reads them, OutputCopy detaches
	// them), so any sharing at all is an error for them. The slots are
	// bucketed by storage in slot order (a counting sort): after the fill,
	// storage sid's slots are byStorage[bounds[sid-1]:bounds[sid]].
	for i := 0; i < slots; i++ {
		if st := stor[i]; st >= 0 {
			bounds[st+1]++
		}
	}
	for sid := 1; sid <= storages; sid++ {
		bounds[sid] += bounds[sid-1]
	}
	for i := 0; i < slots; i++ {
		if st := stor[i]; st >= 0 {
			byStorage[bounds[st]] = int32(i)
			bounds[st]++
		}
	}
	lo := int32(0)
	for sid := 0; sid < storages; sid++ {
		group := byStorage[lo:bounds[sid]]
		lo = bounds[sid]
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				if (flags[a]|flags[b])&slotOutput != 0 {
					res.Errorf("plan-output-alias", fmt.Sprintf("%sstorage %d", c.prefix(), sid),
						"graph-output slot shares storage with another slot (slots %d, %d); "+
							"OutputCopy's contract requires outputs on dedicated buffers", a, b)
					continue
				}
				if defLevel[a] <= lastUse[b] && defLevel[b] <= lastUse[a] {
					res.Errorf("plan-storage-alias", fmt.Sprintf("%sstorage %d", c.prefix(), sid),
						"slots %d (live levels [%d,%d]) and %d (live levels [%d,%d]) share storage while simultaneously live",
						a, defLevel[a], lastUse[a], b, defLevel[b], lastUse[b])
				}
			}
		}
	}

	// Pass 5: needed-ness, backward from the graph outputs in one pass in
	// reverse id order: every consumer of a node comes after it. A node
	// none of whose results reaches an output is wasted work — legal, so a
	// warning, but the fusion and CSE passes should never emit one.
	isOutput := defs // the write counts are spent; 1 marks a graph output
	clear(isOutput)
	for _, s := range outputs {
		isOutput[s] = 1
	}
	for n := nodes - 1; n >= 0; n-- {
		for _, s := range p.NodeOuts(n) {
			if isOutput[s] == 1 {
				needed[n] = 1
			}
		}
		if needed[n] == 0 {
			continue
		}
		for _, s := range p.NodeArgs(n) {
			if pr := prod[s]; pr >= 0 {
				needed[pr] = 1
			}
		}
	}
	for n := 0; n < nodes; n++ {
		if needed[n] == 0 {
			res.Warnf("plan-dead-node", c.nodeWhere(p, n), "no graph output depends on this node's results")
		}
	}

	// Primitive sub-plans obey the same invariants.
	for n := 0; n < nodes; n++ {
		if sub := p.NodeSub(n); sub != nil {
			c.path = append(c.path, n)
			c.check(sub)
			c.path = c.path[:len(c.path)-1]
		}
	}
}
