package runtime

import (
	"fmt"
	"time"

	"repro/internal/neuron"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// This file is the runtime half of the planned executor: planState binds an
// ExecPlan to a preallocated arena and prepares every node's kernel launch
// once per GraphModule, at its first Run, and run executes the node list
// level by level — independent nodes of one wavefront level across the
// parallel workers — with the prepared launches writing into arena views, so
// the steady-state hot path derives nothing and performs no heap allocation
// for intermediates.

// planState is the mutable execution state of one GraphModule over a plan:
// the arena, the current tensor bound to each slot, per-node argument
// scratch, per-op-node prepared launch, per-primitive-node sub-state and
// per-external-node Neuron state. It is constructed once and reused by every
// Run.
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
	subs     []*planState  // per-node sub-state (primitive nodes only)
	ext      []extState    // per-node Neuron state (external nodes only)

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

// extState is what one external node executes with: this module's own Neuron
// working set, and the arena views of the node's result slots, which the
// Neuron runtime writes in place.
type extState struct {
	neuron *neuron.ExecState
	outs   []*tensor.Tensor
}

// setProfiling switches per-node span recording on or off, including the
// sub-states of fused primitive nodes.
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
// every primitive sub-state.
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
// thread row, and the sub-spans of fused kernels folded onto their parent's
// row (Perfetto nests them by containment).
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
// types (topi.Prepare), a primitive node's sub-state, an external node's
// Neuron state. Nothing prepared reads a tensor's data, so a graph input —
// a weight included — may be refilled or rebound between runs. It runs at
// a module's first Run, never in BuildPlan.
func newPlanState(p *ExecPlan) (*planState, error) {
	st := &planState{
		plan:     p,
		arena:    tensor.NewArena(),
		slots:    make([]*tensor.Tensor, len(p.slots)),
		args:     make([]*tensor.Tensor, len(p.index)),
		errs:     make([]error, len(p.nodes)),
		launches: make([]topi.Launch, len(p.nodes)),
		subs:     make([]*planState, len(p.nodes)),
		ext:      make([]extState, len(p.nodes)),
	}
	for _, rec := range p.storages {
		st.arena.Add(rec.DType, rec.Elems)
	}
	for i := range p.slots {
		sl := &p.slots[i]
		switch {
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
		case nodeExternal:
			outs := make([]*tensor.Tensor, 0, n.out.hi-n.out.lo)
			for _, s := range p.ids(n.out) {
				outs = append(outs, st.slots[s])
			}
			ns, err := n.cm.NewExecState()
			if err != nil {
				return nil, fmt.Errorf("runtime: plan state: external region %q: %w", n.label, err)
			}
			st.ext[id] = extState{neuron: ns, outs: outs}
		case nodePrim:
			sub, err := newPlanState(n.sub)
			if err != nil {
				return nil, err
			}
			// The sub-plan's result writes straight into the outer arena
			// view: rebind the sub output slot so the fused body's last
			// kernel lands in place (no copy). A body that is a bare
			// parameter or constant has no producing node; runPrim copies
			// in that case.
			if outSlot := n.sub.index[n.sub.outputs.lo]; n.sub.slots[outSlot].Producer >= 0 {
				sub.slots[outSlot] = st.slots[p.index[n.out.lo]]
			}
			st.subs[id] = sub
		}
	}
	return st, nil
}

// preparedBytes is what the state's prepared launches hold — the
// indirection tables and zero rows of its convolutions and dense layers —
// over every sub-state and Neuron state.
func (st *planState) preparedBytes() int {
	n := 0
	for i := range st.plan.nodes {
		switch st.plan.nodes[i].kind {
		case nodeOp:
			n += st.launches[i].Bytes()
		case nodePrim:
			n += st.subs[i].preparedBytes()
		case nodeExternal:
			n += st.ext[i].neuron.PreparedBytes()
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
	dur := time.Since(start)
	p := st.plan
	n := &p.nodes[ni]
	args := []obs.Arg{obs.A("level", int(n.level))}
	if outs := p.ids(n.out); len(outs) > 0 && p.slots[outs[0]].Storage >= 0 {
		args = append(args, obs.A("storage", int(p.slots[outs[0]].Storage)))
	}
	if n.kind == nodeExternal {
		args = append(args, obs.A("devices", n.devSummary))
	}
	st.trace[ni] = obs.Span{
		Name:  n.label,
		Cat:   n.kind.String(),
		PID:   obs.PIDExec,
		TID:   int(n.lane) + 1,
		Start: start.Sub(st.traceEpoch).Microseconds(),
		Dur:   dur.Microseconds(),
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
		return st.runPrim(ni, n, args)
	case nodeExternal:
		x := &st.ext[ni]
		if err := n.cm.ExecuteInto(x.neuron, args, x.outs); err != nil {
			return fmt.Errorf("runtime: external region %q: %w", n.label, err)
		}
		return nil
	}
	return fmt.Errorf("runtime: plan: unknown node kind %v", n.kind)
}

// runPrim executes a fused kernel's sub-plan serially within this node's
// wavefront task. Each primitive node owns a private sub-state, so two fused
// kernels scheduled on the same level never share sub-arena buffers.
//
//np:hotpath
func (st *planState) runPrim(ni int32, n *planNode, args []*tensor.Tensor) error {
	sub, sp := st.subs[ni], n.sub
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
	outSlot := sp.index[sp.outputs.lo]
	if sp.slots[outSlot].Producer < 0 {
		// Degenerate body (bare parameter/constant): materialize into the
		// outer view.
		return st.slots[st.plan.index[n.out.lo]].CopyFrom(sub.slots[outSlot])
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
