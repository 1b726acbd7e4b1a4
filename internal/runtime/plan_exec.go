package runtime

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// This file is the runtime half of the planned executor: planState binds an
// ExecPlan to a preallocated arena once per GraphModule, and run executes the
// node list level by level — independent nodes of one wavefront level across
// the parallel workers — with kernels writing into arena views through
// topi.RunInto, so the steady-state hot path performs no heap allocation for
// intermediates.

// planState is the mutable execution state of one GraphModule over a plan:
// the arena, the current tensor bound to each slot, per-node argument
// scratch, and per-primitive-node sub-state. It is constructed once and
// reused by every Run.
type planState struct {
	plan  *ExecPlan
	arena *tensor.Arena
	// slots holds each slot's current tensor: constants bound at build time,
	// arena views bound at build time, graph inputs and external-region
	// results rebound per run.
	slots []*tensor.Tensor
	args  [][]*tensor.Tensor // per-node argument scratch
	errs  []error            // per-node error scratch for wavefront execution
	subs  []*planState       // per-node sub-state (primitive nodes only)

	// trace, when non-nil (profiling enabled), receives one wall-clock span
	// per executed node, indexed by node id — concurrent wavefront nodes write
	// disjoint entries, so no synchronization is needed. Nil keeps the hot
	// path free of timing calls and allocations.
	trace      []obs.Span
	traceEpoch time.Time
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

// newPlanState allocates the arena and binds every statically known slot.
func newPlanState(p *ExecPlan) (*planState, error) {
	st := &planState{
		plan:  p,
		arena: tensor.NewArena(),
		slots: make([]*tensor.Tensor, len(p.slots)),
		args:  make([][]*tensor.Tensor, len(p.nodes)),
		errs:  make([]error, len(p.nodes)),
		subs:  make([]*planState, len(p.nodes)),
	}
	for _, rec := range p.storages {
		st.arena.Add(rec.DType, rec.Elems)
	}
	for i, sl := range p.slots {
		switch {
		case sl.Const != nil:
			st.slots[i] = sl.Const
		case sl.Storage >= 0:
			v, err := st.arena.View(sl.Storage, sl.DType, sl.Shape, sl.Quant)
			if err != nil {
				return nil, fmt.Errorf("runtime: plan state: slot %d: %w", i, err)
			}
			st.slots[i] = v
		}
	}
	for id, n := range p.nodes {
		st.args[id] = make([]*tensor.Tensor, len(n.args))
		if n.kind != nodePrim {
			continue
		}
		sub, err := newPlanState(n.sub)
		if err != nil {
			return nil, err
		}
		// The sub-plan's result writes straight into the outer arena view:
		// rebind the sub output slot so the fused body's last kernel lands
		// in place (no copy). A body that is a bare parameter or constant
		// has no producing node; runPrim copies in that case.
		if outSlot := n.sub.outputs[0]; n.sub.slots[outSlot].Producer >= 0 {
			sub.slots[outSlot] = st.slots[n.out[0]]
		}
		st.subs[id] = sub
	}
	return st, nil
}

// run executes one inference over the bound plan. Numerics run uncharged
// (possibly concurrently); the simulated cost is then charged to prof in a
// single sequential pass over the linear node order, which keeps the profile
// bit-identical to the interpreter's post-order charging regardless of how
// the wavefront interleaved.
func (st *planState) run(inputs map[string]*tensor.Tensor, prof *soc.Profile) error {
	p := st.plan
	for name, slot := range p.inputs {
		in, ok := inputs[name]
		if !ok {
			return fmt.Errorf("runtime: input %q not set", name)
		}
		st.slots[slot] = in
	}
	for _, lvl := range p.levels {
		if len(lvl) == 1 || parallel.MaxWorkers() <= 1 {
			for _, ni := range lvl {
				if err := st.exec(ni); err != nil {
					return err
				}
			}
			continue
		}
		// Wavefront: the nodes of one level are mutually independent and
		// the memory planner never recycles a storage within its release
		// level, so they run concurrently without aliasing.
		parallel.For(len(lvl), func(i int) {
			ni := lvl[i]
			st.errs[ni] = st.exec(ni)
		})
		for _, ni := range lvl {
			if st.errs[ni] != nil {
				return st.errs[ni]
			}
		}
	}
	if prof != nil {
		st.charge(prof)
	}
	return nil
}

// exec runs one node's numerics, recording a wall-clock span when profiling
// is enabled.
func (st *planState) exec(ni int) error {
	if st.trace == nil {
		return st.execNode(ni)
	}
	start := time.Now()
	err := st.execNode(ni)
	dur := time.Since(start)
	n := st.plan.nodes[ni]
	args := []obs.Arg{obs.A("level", n.level)}
	if len(n.out) > 0 && st.plan.slots[n.out[0]].Storage >= 0 {
		args = append(args, obs.A("storage", st.plan.slots[n.out[0]].Storage))
	}
	if n.kind == nodeExternal {
		args = append(args, obs.A("devices", n.devSummary))
	}
	st.trace[ni] = obs.Span{
		Name:  n.label,
		Cat:   n.kind.String(),
		PID:   obs.PIDExec,
		TID:   n.lane + 1,
		Start: start.Sub(st.traceEpoch).Microseconds(),
		Dur:   dur.Microseconds(),
		Args:  args,
	}
	return err
}

// execNode runs one node's numerics.
//
//np:hotpath
func (st *planState) execNode(ni int) error {
	n := st.plan.nodes[ni]
	args := st.args[ni]
	for i, s := range n.args {
		args[i] = st.slots[s]
	}
	switch n.kind {
	case nodeOp:
		return topi.RunInto(n.opName, args, n.attrs, n.outTy, st.slots[n.out[0]])
	case nodePrim:
		return st.runPrim(ni, n, args)
	case nodeExternal:
		outs, err := n.cm.Execute(args)
		if err != nil {
			return fmt.Errorf("runtime: external region %q: %w", n.sym, err)
		}
		if len(outs) != len(n.out) {
			return fmt.Errorf("runtime: external region %q returned %d outputs, plan has %d", n.sym, len(outs), len(n.out))
		}
		for i, o := range outs {
			st.slots[n.out[i]] = o
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
func (st *planState) runPrim(ni int, n *planNode, args []*tensor.Tensor) error {
	sub := st.subs[ni]
	for i, s := range n.sub.params {
		sub.slots[s] = args[i]
	}
	// Level by level, like run: the memory planner recycles a storage one
	// level after its last reader, which node-id order does not respect.
	for _, lvl := range n.sub.levels {
		for _, id := range lvl {
			if err := sub.exec(id); err != nil {
				return err
			}
		}
	}
	outSlot := n.sub.outputs[0]
	if n.sub.slots[outSlot].Producer < 0 {
		// Degenerate body (bare parameter/constant): materialize into the
		// outer view.
		return st.slots[n.out[0]].CopyFrom(sub.slots[outSlot])
	}
	return nil
}

// charge accrues the simulated cost of the whole plan in linear node order:
// the precomputed TVM-engine time per op/primitive node, and the Execution
// Planner estimate (dispatch + per-op + boundary DMA) per external region —
// the exact sequence the interpreting executor emits.
//
//np:hotpath
func (st *planState) charge(prof *soc.Profile) {
	for _, n := range st.plan.nodes {
		switch n.kind {
		case nodeOp, nodePrim:
			prof.AddOpNamed(soc.KindCPU, n.charge, n.label)
		case nodeExternal:
			prof.AddSubgraphNamed(n.sym)
			n.cm.Estimate(prof)
		}
	}
}
