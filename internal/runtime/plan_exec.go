package runtime

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// This file is the runtime half of the planned executor: planState binds an
// ExecPlan to a preallocated arena and prepares every node's kernel launch
// once per GraphModule, at its first Run — a NeuroPilot region's included,
// lowered then into a serial sub-plan of its node — and run executes the node list
// level by level — independent nodes of one wavefront level across the
// parallel workers — with the prepared launches writing into arena views, so
// the steady-state hot path derives nothing and performs no heap allocation
// for intermediates.

// planState is the mutable execution state of one GraphModule over a plan:
// the arena, the current tensor bound to each slot, per-node argument
// scratch, per-op-node prepared launch, and the sub-state of each primitive
// and external node. It is constructed once and reused by every Run.
type planState struct {
	plan  *ExecPlan
	arena *tensor.Arena
	// slots holds each slot's current tensor: constants and arena views
	// bound at build time, graph inputs rebound per run.
	slots []*tensor.Tensor
	// args is the nodes' argument scratch, laid out as the plan's index
	// slab: node n's arguments bind at its args span.
	args     []*tensor.Tensor
	errs     []error       // per-node error scratch for wavefront execution
	launches []topi.Launch // per-node prepared kernel launch (op nodes only)
	// subs is the per-node sub-state: a primitive's over its fused body, an
	// external node's over its region lowered by LowerRegion.
	subs []*planState

	// charged is the plan's simulated cost, charged by the first unprofiled
	// Run and returned by every later one: the charge reads node costs and
	// region estimates, never a tensor, so it cannot differ between runs.
	charged *soc.Profile

	// trace, when non-nil (profiling enabled), receives one wall-clock span
	// per executed node, indexed by node id — concurrent wavefront nodes write
	// disjoint entries, so no synchronization is needed. Nil keeps the hot
	// path free of timing calls and allocations.
	trace      []obs.Span
	traceEpoch time.Time
}

// setProfiling switches per-node span recording on or off, including the
// sub-states of primitive and external nodes.
func (st *planState) setProfiling(on bool) {
	if on && st.trace == nil {
		st.trace = make([]obs.Span, len(st.plan.nodes))
	} else if !on {
		st.trace = nil
	}
	for _, sub := range st.subs {
		if sub != nil {
			sub.setProfiling(on)
		}
	}
}

// setEpoch sets the wall-clock zero for span timestamps on this state and
// every sub-state.
func (st *planState) setEpoch(t time.Time) {
	st.traceEpoch = t
	for _, sub := range st.subs {
		if sub != nil {
			sub.setEpoch(t)
		}
	}
}

// traceSpans collects the spans of the most recent profiled run: one span per
// executed node on the PIDExec clock, with each node's wavefront lane as the
// thread row, and the sub-spans of fused kernels and of a region's stages
// folded onto their parent's row as "fused-op" (Perfetto nests them by
// containment).
func (st *planState) traceSpans() []obs.Span {
	if st.trace == nil {
		return nil
	}
	var out []obs.Span
	for i, sp := range st.trace {
		if sp.Name == "" {
			continue
		}
		out = append(out, sp)
		if sub := st.subs[i]; sub != nil && sub.trace != nil {
			for _, ssp := range sub.trace {
				if ssp.Name == "" {
					continue
				}
				ssp.TID = sp.TID
				ssp.Cat = "fused-op"
				out = append(out, ssp)
			}
		}
	}
	return out
}

// newPlanState allocates the arena, binds every statically known slot and
// prepares every node: an op node's kernel launch from its argument slots'
// types (topi.Prepare), a primitive node's sub-state over its body, an
// external node's over its region, lowered here and put through the gate
// BuildPlan puts every plan through. Nothing prepared reads a tensor's
// data, so a graph input — a weight included — may be refilled or rebound
// between runs. It runs at a module's first Run, never in BuildPlan.
//
// outs, for a sub-plan, are the outer node's result views: each output a
// node produces is bound, at its first listing, to its outer view, so the
// kernel writing it lands in place and the dedicated storage the planner
// gave it is left empty. An output no node produces — a parameter or
// constant passed through — and a second listing are copied by runSub.
func newPlanState(p *ExecPlan, outs []*tensor.Tensor) (*planState, error) {
	st := &planState{
		plan:     p,
		arena:    tensor.NewArena(),
		slots:    make([]*tensor.Tensor, len(p.slots)),
		args:     make([]*tensor.Tensor, len(p.index)),
		errs:     make([]error, len(p.nodes)),
		launches: make([]topi.Launch, len(p.nodes)),
		subs:     make([]*planState, len(p.nodes)),
	}
	empty := make([]bool, len(p.storages))
	if outs != nil {
		for k, s := range p.ids(p.outputs) {
			if sl := &p.slots[s]; sl.Producer >= 0 && st.slots[s] == nil {
				st.slots[s], empty[sl.Storage] = outs[k], true
			}
		}
	}
	for id, rec := range p.storages {
		if empty[id] {
			rec.Elems = 0
		}
		st.arena.Add(rec.DType, rec.Elems)
	}
	for i := range p.slots {
		sl := &p.slots[i]
		switch {
		case st.slots[i] != nil: // an output bound to its outer view
		case sl.Const != nil:
			st.slots[i] = sl.Const
		case sl.Storage >= 0:
			v, err := st.arena.View(int(sl.Storage), sl.Type.DType, sl.Type.Shape, sl.Type.Quant)
			if err != nil {
				return nil, fmt.Errorf("runtime: plan state: slot %d: %w", i, err)
			}
			st.slots[i] = v
		}
	}
	for id := range p.nodes {
		n := &p.nodes[id]
		switch n.kind {
		case nodeOp:
			in := make([]*relay.TensorType, 0, n.args.hi-n.args.lo)
			for _, s := range p.ids(n.args) {
				in = append(in, p.slots[s].Type)
			}
			l, err := topi.Prepare(n.label, in, n.attrs, n.outTy)
			if err != nil {
				return nil, fmt.Errorf("runtime: plan state: node %d: %w", id, err)
			}
			st.launches[id] = l
		case nodePrim, nodeExternal:
			sp := n.sub
			if n.kind == nodeExternal {
				var err error
				if sp, err = regionPlan(p, n); err != nil {
					return nil, err
				}
			}
			outs := make([]*tensor.Tensor, 0, n.out.hi-n.out.lo)
			for _, s := range p.ids(n.out) {
				outs = append(outs, st.slots[s])
			}
			sub, err := newPlanState(sp, outs)
			if err != nil {
				return nil, err
			}
			st.subs[id] = sub
		}
	}
	return st, nil
}

// regionPlan lowers external node n of p and gates the sub-plan, which must
// take and return tensors of the types the node passes and expects.
func regionPlan(p *ExecPlan, n *planNode) (*ExecPlan, error) {
	sp, err := LowerRegion(n.cm)
	if err == nil {
		err = checkRegion(sp)
	}
	if err == nil && (!sameTypes(p, p.ids(n.args), sp, sp.ids(sp.params)) || !sameTypes(p, p.ids(n.out), sp, sp.ids(sp.outputs))) {
		err = fmt.Errorf("its inputs and outputs are not the tensors its node passes and expects")
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: plan state: external region %q: %w", n.label, err)
	}
	return sp, nil
}

// sameTypes reports whether slots a of p and b of q agree one for one in
// dtype and shape.
func sameTypes(p *ExecPlan, a []int32, q *ExecPlan, b []int32) bool {
	return slices.EqualFunc(a, b, func(x, y int32) bool {
		tx, ty := p.slots[x].Type, q.slots[y].Type
		return tx.DType == ty.DType && tx.Shape.Equal(ty.Shape)
	})
}

// checkRegion is the gate on a lowered region: the plan-safety checker
// BuildPlan puts every plan through.
func checkRegion(sp *ExecPlan) error {
	if err := analysis.PlanSafety((*checkedPlan)(sp)).Err(); err != nil {
		return fmt.Errorf("sub-plan failed verification: %w", err)
	}
	return nil
}

// preparedBytes is what the state's prepared launches hold — the
// indirection tables and zero rows of its convolutions and dense layers —
// over every sub-state.
func (st *planState) preparedBytes() int {
	n := 0
	for i := range st.plan.nodes {
		switch st.plan.nodes[i].kind {
		case nodeOp:
			n += st.launches[i].Bytes()
		case nodePrim, nodeExternal:
			n += st.subs[i].preparedBytes()
		}
	}
	return n
}

// run executes one inference's numerics over the bound plan, possibly
// concurrently. The simulated cost is charged apart (charge), in a single
// sequential pass over the linear node order, which keeps the profile
// bit-identical to the interpreter's post-order charging regardless of how
// the wavefront interleaved.
func (st *planState) run(inputs map[string]*tensor.Tensor) error {
	p := st.plan
	for _, slot := range p.ids(p.params) {
		name := p.slots[slot].InputName
		in, ok := inputs[name]
		if !ok {
			return fmt.Errorf("runtime: input %q not set", name)
		}
		// The caller may refill an input between runs: nothing derived from
		// its data (a weight operand's packed panels) may be kept.
		in.MarkVolatile()
		st.slots[slot] = in
	}
	for _, lv := range p.levels {
		lvl := p.ids(lv)
		if len(lvl) == 1 {
			if err := st.exec(lvl[0]); err != nil {
				return err
			}
			continue
		}
		// Wavefront: the nodes of one level are mutually independent and
		// the memory planner never recycles a storage within its release
		// level, so they run concurrently without aliasing — split when the
		// level's summed work pays for it.
		var work int64
		for _, ni := range lvl {
			work += p.nodes[ni].work
		}
		levelRegion.Run(len(lvl), work, levelArgs{st, lvl})
		for _, ni := range lvl {
			if st.errs[ni] != nil {
				return st.errs[ni]
			}
		}
	}
	return nil
}

// unbindInputs drops the graph inputs bound by the last run.
func (st *planState) unbindInputs() {
	for _, slot := range st.plan.ids(st.plan.params) {
		st.slots[slot] = nil
	}
}

var levelRegion = parallel.NewRegion(levelArgs.run)

// levelArgs is a wavefront level's chunk: nodes [lo, hi) of lvl, each
// recording its error in st.errs.
type levelArgs struct {
	st  *planState
	lvl []int32
}

func (a levelArgs) run(lo, hi int) {
	for _, ni := range a.lvl[lo:hi] {
		a.st.errs[ni] = a.st.exec(ni)
	}
}

// exec runs one node's numerics, recording a wall-clock span when profiling
// is enabled.
func (st *planState) exec(ni int32) error {
	if st.trace == nil {
		return st.execNode(ni)
	}
	start := time.Now()
	err := st.execNode(ni)
	end := time.Now()
	p := st.plan
	n := &p.nodes[ni]
	args := []obs.Arg{obs.A("level", int(n.level))}
	if outs := p.ids(n.out); len(outs) > 0 && p.slots[outs[0]].Storage >= 0 {
		args = append(args, obs.A("storage", int(p.slots[outs[0]].Storage)))
	}
	if n.kind == nodeExternal {
		args = append(args, obs.A("devices", n.devSummary))
	}
	// Both ends are rounded on the epoch's clock, so a sub-span lies inside
	// its parent's span exactly as the runs nest.
	us := start.Sub(st.traceEpoch).Microseconds()
	st.trace[ni] = obs.Span{
		Name:  n.label,
		Cat:   n.kind.String(),
		PID:   obs.PIDExec,
		TID:   int(n.lane) + 1,
		Start: us,
		Dur:   end.Sub(st.traceEpoch).Microseconds() - us,
		Args:  args,
	}
	return err
}

// execNode runs one node's numerics.
//
//np:hotpath
func (st *planState) execNode(ni int32) error {
	p := st.plan
	n := &p.nodes[ni]
	args := st.args[n.args.lo:n.args.hi]
	for i, s := range p.ids(n.args) {
		args[i] = st.slots[s]
	}
	switch n.kind {
	case nodeOp:
		return st.launches[ni].Run(args, st.slots[p.index[n.out.lo]])
	case nodePrim:
		return st.runSub(ni, n, args)
	case nodeExternal:
		if err := st.runSub(ni, n, args); err != nil {
			return fmt.Errorf("runtime: external region %q: %w", n.label, err)
		}
		return nil
	}
	return fmt.Errorf("runtime: plan: unknown node kind %v", n.kind)
}

// runSub executes a fused kernel's or a region's sub-plan serially within
// this node's wavefront task. Each such node owns a private sub-state, so
// two of them scheduled on the same level never share sub-arena buffers.
//
//np:hotpath
func (st *planState) runSub(ni int32, n *planNode, args []*tensor.Tensor) error {
	sub := st.subs[ni]
	sp := sub.plan
	for i, s := range sp.ids(sp.params) {
		sub.slots[s] = args[i]
	}
	// Level by level, like run: the memory planner recycles a storage one
	// level after its last reader, which node-id order does not respect.
	for _, lv := range sp.levels {
		for _, id := range sp.ids(lv) {
			if err := sub.exec(id); err != nil {
				return err
			}
		}
	}
	// An output not bound to its outer view at state creation is copied
	// there: a passed-through parameter or constant, or a repeated listing.
	outs := st.plan.ids(n.out)
	for k, s := range sp.ids(sp.outputs) {
		if dst := st.slots[outs[k]]; sub.slots[s] != dst {
			if err := dst.CopyFrom(sub.slots[s]); err != nil {
				return err
			}
		}
	}
	return nil
}

// charge accrues the simulated cost of the whole plan in linear node order:
// the precomputed TVM-engine time per op/primitive node, and the Execution
// Planner estimate (dispatch + per-op + boundary DMA) per external region —
// the exact sequence the interpreting executor emits.
//
//np:hotpath
func (p *ExecPlan) charge(prof *soc.Profile) {
	for i := range p.nodes {
		n := &p.nodes[i]
		switch n.kind {
		case nodeOp, nodePrim:
			prof.AddOpNamed(soc.KindCPU, n.charge, n.label)
		case nodeExternal:
			prof.AddSubgraphNamed(n.label)
			n.cm.Estimate(prof)
		}
	}
}
