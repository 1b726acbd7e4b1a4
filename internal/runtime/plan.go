package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// This file is the compile half of the planned executor: it lowers a built
// module's main function (post fusion/partitioning) into a linearized
// ExecPlan — a topologically sorted node list with explicit value slots —
// and runs a static memory planner that assigns arena storage IDs by
// liveness, TVM GraphPlanMemory-style, so intermediate buffers are reused
// across non-overlapping lifetimes. plan_exec.go executes the result;
// analysis.PlanSafety audits it (plan_view.go exports it).

// planNodeKind discriminates the executable node forms of a plan.
type planNodeKind int

const (
	// nodeOp is a single TOPI operator application.
	nodeOp planNodeKind = iota
	// nodePrim is a fused kernel (relay Primitive function) lowered to a
	// serial sub-plan charged as one launch.
	nodePrim
	// nodeExternal dispatches a partitioned region to its compiled
	// NeuroPilot artifact.
	nodeExternal
)

func (k planNodeKind) String() string {
	switch k {
	case nodeOp:
		return "op"
	case nodePrim:
		return "primitive"
	case nodeExternal:
		return "external"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// pval is the plan-time shape of an expression's value: a tensor slot or a
// tuple of pvals. Tuples exist only at plan time — the builder resolves every
// TupleGetItem statically, so the executed plan moves tensors exclusively.
type pval struct {
	slot   int32
	fields []pval // non-nil for tuple-valued expressions
}

// span is the half-open range [lo, hi) of a plan's index slab.
type span struct{ lo, hi int32 }

// planNode is one executable step, a value in the plan's node slab.
type planNode struct {
	kind  planNodeKind
	level int32 // wavefront dependency level
	lane  int32 // index within the level — the trace row concurrent nodes render on

	args span // input slot ids, tuple arguments pre-flattened
	out  span // output slot ids (more than one only for multi-output externals)

	// label names the node for profile events and trace spans: the op name
	// an op node dispatches, the fused kernel's op chain, or the external
	// region's global symbol (its key in Lib.External).
	label string

	// nodeOp fields.
	attrs relay.Attrs
	outTy *relay.TensorType

	// nodePrim field.
	sub *ExecPlan

	// nodeExternal fields.
	cm *neuron.CompiledModel
	// devSummary renders the Execution Planner's device placement for trace
	// spans ("apu:12 cpu:3"), precomputed so profiled runs don't re-derive it.
	devSummary string

	// charge is the precomputed TVM-engine cost of this node (op and
	// primitive nodes of a top-level plan). External nodes charge through
	// cm.Estimate instead.
	charge soc.Seconds

	// work is the node's MACs (soc.WorkOf, summed over a fused or external
	// body): the wavefront's split estimate, zero inside a sub-plan.
	work int64
}

// slotInfo describes one value slot: the static type, the producing node and
// the arena storage backing it. Every node result is arena-backed, a
// NeuroPilot region's included: the Neuron runtime writes its outputs into
// the views it is handed. Only graph inputs and constants are externally
// owned (Storage -1).
type slotInfo struct {
	Type *relay.TensorType

	Const     *tensor.Tensor // non-nil for constant slots
	InputName string         // non-empty for graph-input slots

	Producer int32 // producing node id; -1 for inputs and constants
	Storage  int32 // arena storage id; -1 when not arena-backed
	IsOutput bool
	// IsParam marks the slots the caller binds per run: graph inputs, and a
	// sub-plan's parameters, which are positional and so unnamed.
	IsParam bool
}

// storageRec is one arena buffer: slots only share a storage when their
// dtype and element count match exactly, so views are always whole-buffer.
type storageRec struct {
	DType tensor.DType
	Elems int
}

// ExecPlan is a lowered, memory-planned form of a module's main function,
// held as flat value slabs: nodes and slots are values, and every id list —
// a node's arguments and results, a level's nodes, the params and outputs —
// is a span of the one index slab.
type ExecPlan struct {
	nodes    []planNode
	slots    []slotInfo
	storages []storageRec
	index    []int32
	levels   []span // node ids per dependency level

	params  span // input slots in declaration order
	outputs span // graph-output slots in result order

	// NaiveBytes is what one-buffer-per-node allocation would use for the
	// arena-backed intermediates; ArenaBytes is what the planner's reuse
	// actually allocates. The ratio is the memory planner's payoff.
	NaiveBytes int
	ArenaBytes int
}

// ids returns the index slab's span s.
func (p *ExecPlan) ids(s span) []int32 { return p.index[s.lo:s.hi] }

// NumNodes returns the executable node count.
func (p *ExecPlan) NumNodes() int { return len(p.nodes) }

// NumLevels returns the wavefront depth.
func (p *ExecPlan) NumLevels() int { return len(p.levels) }

// NumStorages returns how many arena buffers the memory planner allocated.
func (p *ExecPlan) NumStorages() int { return len(p.storages) }

// String summarizes the plan (the executor's debug view).
func (p *ExecPlan) String() string {
	return fmt.Sprintf("ExecPlan{%d nodes, %d levels, %d slots, %d storages, arena %d B (naive %d B)}",
		len(p.nodes), len(p.levels), len(p.slots), len(p.storages), p.ArenaBytes, p.NaiveBytes)
}

// planBuilder lowers relay expressions into an ExecPlan. It builds in scratch
// slabs and seals the plan into exactly sized ones, so one builder — taken
// from builderPool with its maps and slabs grown by earlier plans — lowers
// plan after plan, and a warm build allocates little beyond the plan.
type planBuilder struct {
	lib   *Lib
	inner bool // building a primitive sub-plan
	memo  map[relay.Expr]pval
	env   map[*relay.Var]pval
	// sub lowers this builder's fused sub-plans, one after another.
	sub *planBuilder

	nodes   []planNode
	slots   []slotInfo
	index   []int32
	params  span
	outputs span
	// stack holds the argument slots of the calls being lowered: a call
	// lowers its arguments, which push and pop their own, before it moves
	// its own into the index slab.
	stack []int32
	label []byte // a fused kernel's label, spelled here before it is copied out

	// finish's scratch.
	levels   []span
	lastUse  []int32   // per slot, the deepest level that reads it
	freeAt   [][]int32 // per level, the storages its last readers release
	avail    []int32
	storages []storageRec
}

var builderPool = sync.Pool{New: func() any { return newPlanBuilder(false) }}

func newPlanBuilder(inner bool) *planBuilder {
	return &planBuilder{
		inner: inner,
		memo:  map[relay.Expr]pval{},
		env:   map[*relay.Var]pval{},
	}
}

// reset empties the builder for the next plan of lib, dropping every
// reference the last one held.
func (b *planBuilder) reset(lib *Lib) {
	b.lib = lib
	clear(b.memo)
	clear(b.env)
	clear(b.nodes)
	clear(b.slots)
	b.nodes, b.slots, b.index, b.stack = b.nodes[:0], b.slots[:0], b.index[:0], b.stack[:0]
	b.params, b.outputs = span{}, span{}
}

// BuildPlan lowers the library's main function into an execution plan. It
// fails on constructs the planned executor does not support (plain
// non-primitive function calls, tuple-typed parameters); callers fall back
// to the interpreting executor in that case.
func BuildPlan(lib *Lib) (*ExecPlan, error) {
	b := builderPool.Get().(*planBuilder)
	b.reset(lib)
	defer func() {
		for x := b; x != nil; x = x.sub {
			x.reset(nil)
		}
		builderPool.Put(b)
	}()
	main := lib.Module.Main()
	for _, prm := range main.Params {
		tt, ok := prm.TypeAnnotation.(*relay.TensorType)
		if !ok {
			return nil, fmt.Errorf("runtime: plan: input %q is not tensor-typed", prm.Name)
		}
		s := b.addParam(tt)
		b.slots[s].InputName = prm.Name
		b.env[prm] = pval{slot: s}
	}
	root, err := b.eval(main.Body)
	if err != nil {
		return nil, err
	}
	if root.fields == nil {
		b.stack = append(b.stack, root.slot)
	}
	for i, f := range root.fields {
		if f.fields != nil {
			return nil, fmt.Errorf("runtime: plan: nested tuple in graph output %d", i)
		}
		b.stack = append(b.stack, f.slot)
	}
	b.setOutputs()
	plan := b.finish()
	// The one gate: the safety checker re-derives levels and liveness from
	// the plan's node list alone and audits the storage assignment and the
	// executed wavefronts against them (see internal/analysis), so a planner
	// bug surfaces as a build-time diagnostic, not a corrupted inference.
	if err := analysis.PlanSafety((*checkedPlan)(plan)).Err(); err != nil {
		return nil, fmt.Errorf("runtime: built plan failed verification: %w", err)
	}
	return plan, nil
}

func (b *planBuilder) addSlot(tt *relay.TensorType) int32 {
	b.slots = append(b.slots, slotInfo{Type: tt, Producer: -1, Storage: -1})
	return int32(len(b.slots) - 1)
}

// addParam adds a slot the caller binds. Params come before any node, so
// they are the index slab's first span.
func (b *planBuilder) addParam(tt *relay.TensorType) int32 {
	s := b.addSlot(tt)
	b.slots[s].IsParam = true
	b.index = append(b.index, s)
	b.params.hi = int32(len(b.index))
	return s
}

// setOutputs makes the slots on the stack the graph outputs, in order.
func (b *planBuilder) setOutputs() {
	for _, s := range b.stack {
		b.slots[s].IsOutput = true
	}
	b.outputs = b.push(b.stack...)
	b.stack = b.stack[:0]
}

// addNode appends n reading the argument slots pushed on the stack from
// base on and writing outs, and pops the arguments.
func (b *planBuilder) addNode(n planNode, base int, outs ...int32) {
	id := int32(len(b.nodes))
	n.args = b.push(b.stack[base:]...)
	n.out = b.push(outs...)
	for _, o := range outs {
		b.slots[o].Producer = id
	}
	b.nodes = append(b.nodes, n)
	b.stack = b.stack[:base]
}

// push appends ids to the index slab and returns their span.
func (b *planBuilder) push(ids ...int32) span {
	lo := int32(len(b.index))
	b.index = append(b.index, ids...)
	return span{lo, int32(len(b.index))}
}

func (b *planBuilder) eval(e relay.Expr) (pval, error) {
	if v, ok := b.memo[e]; ok {
		return v, nil
	}
	v, err := b.evalUncached(e)
	if err != nil {
		return pval{}, err
	}
	b.memo[e] = v
	return v, nil
}

func (b *planBuilder) evalUncached(e relay.Expr) (pval, error) {
	switch n := e.(type) {
	case *relay.Var:
		v, ok := b.env[n]
		if !ok {
			return pval{}, fmt.Errorf("runtime: plan: unbound variable %q", n.Name)
		}
		return v, nil
	case *relay.Constant:
		tt, ok := n.CheckedType().(*relay.TensorType)
		if !ok {
			return pval{}, fmt.Errorf("runtime: plan: constant with non-tensor type")
		}
		s := b.addSlot(tt)
		b.slots[s].Const = n.Value
		return pval{slot: s}, nil
	case *relay.Tuple:
		fields := make([]pval, len(n.Fields))
		for i, f := range n.Fields {
			v, err := b.eval(f)
			if err != nil {
				return pval{}, err
			}
			fields[i] = v
		}
		return pval{fields: fields}, nil
	case *relay.TupleGetItem:
		tv, err := b.eval(n.Tuple)
		if err != nil {
			return pval{}, err
		}
		if tv.fields == nil {
			return pval{}, fmt.Errorf("runtime: plan: projection on non-tuple value")
		}
		if n.Index < 0 || n.Index >= len(tv.fields) {
			return pval{}, fmt.Errorf("runtime: plan: projection index %d out of range", n.Index)
		}
		return tv.fields[n.Index], nil
	case *relay.Call:
		return b.evalCall(n)
	}
	return pval{}, fmt.Errorf("runtime: plan: cannot lower %T", e)
}

// pushArgs lowers call arguments and pushes their slots, mirroring the
// interpreter's tuple flattening for operator calls (concatenate).
func (b *planBuilder) pushArgs(args []relay.Expr, what string) error {
	for _, a := range args {
		v, err := b.eval(a)
		if err != nil {
			return err
		}
		if v.fields == nil {
			b.stack = append(b.stack, v.slot)
			continue
		}
		for _, f := range v.fields {
			if f.fields != nil {
				return fmt.Errorf("runtime: plan: nested tuple argument to %s", what)
			}
			b.stack = append(b.stack, f.slot)
		}
	}
	return nil
}

func (b *planBuilder) evalCall(c *relay.Call) (pval, error) {
	if c.Op != nil {
		return b.evalOpCall(c)
	}
	fn, ok := c.Fn.(*relay.Function)
	if !ok {
		return pval{}, fmt.Errorf("runtime: plan: call of non-literal function value")
	}
	switch {
	case fn.Attr(relay.FnAttrCompiler) == "nir":
		return b.evalExternal(c, fn)
	case fn.Attr(relay.FnAttrPrimitive) != "":
		return b.evalPrimitive(c, fn)
	default:
		// Plain function calls do not survive the pass pipeline; rather than
		// replicate the interpreter's inlining, the plan refuses and the
		// module runs on the reference interpreter.
		return pval{}, fmt.Errorf("runtime: plan: non-primitive function call is not plannable")
	}
}

func (b *planBuilder) evalOpCall(c *relay.Call) (pval, error) {
	base := len(b.stack)
	if err := b.pushArgs(c.Args, c.Op.Name); err != nil {
		return pval{}, err
	}
	outTy, ok := c.CheckedType().(*relay.TensorType)
	if !ok {
		return pval{}, fmt.Errorf("runtime: plan: op %s has non-tensor checked type %v", c.Op.Name, c.CheckedType())
	}
	out := b.addSlot(outTy)
	n := planNode{kind: nodeOp, label: c.Op.Name, attrs: c.Attrs, outTy: outTy}
	// A sub-plan's nodes are neither charged nor split by work: their
	// primitive node is, as one launch.
	if !b.inner {
		w := soc.WorkOf(c)
		n.charge, n.work = b.lib.SoC.CPU.OpTime(w, soc.TVMEff(w)), w.MACs
	}
	b.addNode(n, base, out)
	return pval{slot: out}, nil
}

// planSummary renders a compiled model's per-device operation counts in
// device order ("apu:12 cpu:3").
func planSummary(cm *neuron.CompiledModel) string {
	counts := cm.PlanCounts()
	kinds := make([]soc.DeviceKind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := ""
	for _, k := range kinds {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", k, counts[k])
	}
	return out
}

// primLabel names a fused kernel by its operator chain ("fused:conv2d+relu").
func primLabel(fn *relay.Function) string { return string(appendPrimLabel(nil, fn)) }

// appendPrimLabel appends primLabel(fn) to dst.
func appendPrimLabel(dst []byte, fn *relay.Function) []byte {
	dst = append(dst, "fused:"...)
	start := len(dst)
	relay.PostOrderVisit(fn.Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op != nil {
			if len(dst) > start {
				dst = append(dst, '+')
			}
			dst = append(dst, c.Op.Name...)
		}
	})
	if len(dst) == start {
		dst = append(dst, "identity"...)
	}
	return dst
}

// evalPrimitive lowers a fused kernel: the body becomes a serial sub-plan
// with its own (per-node) arena, charged as a single launch like the
// interpreter's evalPrimitive.
func (b *planBuilder) evalPrimitive(c *relay.Call, fn *relay.Function) (pval, error) {
	if len(c.Args) != len(fn.Params) {
		return pval{}, fmt.Errorf("runtime: plan: primitive call arity %d, function wants %d", len(c.Args), len(fn.Params))
	}
	// Fused functions may take tuple-typed parameters (fused concatenate):
	// the sub-plan assigns one slot per leaf tensor, and the call site passes
	// the argument leaves in the same order.
	base := len(b.stack)
	for i, a := range c.Args {
		v, err := b.eval(a)
		if err != nil {
			return pval{}, err
		}
		before := len(b.stack)
		b.pushLeaves(v)
		if got, want := len(b.stack)-before, countLeaves(fn.Params[i].TypeAnnotation); got != want {
			return pval{}, fmt.Errorf("runtime: plan: primitive argument %d has %d tensor leaves, parameter wants %d", i, got, want)
		}
	}
	if b.sub == nil {
		b.sub = newPlanBuilder(true)
	}
	sub, err := b.sub.buildSubPlan(b.lib, fn)
	if err != nil {
		return pval{}, err
	}
	outTy, ok := c.CheckedType().(*relay.TensorType)
	if !ok {
		return pval{}, fmt.Errorf("runtime: plan: primitive with non-tensor result type %v", c.CheckedType())
	}
	out := b.addSlot(outTy)
	fw := soc.FunctionWork(fn)
	b.label = appendPrimLabel(b.label[:0], fn)
	b.addNode(planNode{
		kind:   nodePrim,
		label:  string(b.label),
		sub:    sub,
		charge: b.lib.SoC.CPU.OpTime(fw, soc.TVMEff(fw)),
		work:   fw.MACs,
	}, base, out)
	return pval{slot: out}, nil
}

// pushLeaves pushes a pval's tensor slots in depth-first order.
func (b *planBuilder) pushLeaves(v pval) {
	if v.fields == nil {
		b.stack = append(b.stack, v.slot)
		return
	}
	for _, f := range v.fields {
		b.pushLeaves(f)
	}
}

// countLeaves counts the tensor leaves of a type (1 for a tensor, the summed
// field leaves for a tuple).
func countLeaves(ty relay.Type) int {
	tup, ok := ty.(*relay.TupleType)
	if !ok {
		return 1
	}
	n := 0
	for _, f := range tup.Fields {
		n += countLeaves(f)
	}
	return n
}

// buildSubPlan lowers a primitive function body. Sub-plans execute serially
// inside one wavefront task, so two primitive nodes scheduled concurrently
// never share sub-plan state: each prim node binds its own arena.
func (b *planBuilder) buildSubPlan(lib *Lib, fn *relay.Function) (*ExecPlan, error) {
	b.reset(lib)
	for i, prm := range fn.Params {
		v, err := b.paramSlots(prm.TypeAnnotation)
		if err != nil {
			return nil, fmt.Errorf("runtime: plan: primitive parameter %d: %w", i, err)
		}
		b.env[prm] = v
	}
	root, err := b.eval(fn.Body)
	if err != nil {
		return nil, err
	}
	if root.fields != nil {
		return nil, fmt.Errorf("runtime: plan: tuple-valued primitive body is not plannable")
	}
	b.stack = append(b.stack, root.slot)
	b.setOutputs()
	return b.finish(), nil
}

// paramSlots allocates the input slot(s) for one sub-plan parameter: a
// single slot for a tensor, a slot tree for a tuple. Every leaf is appended
// to the params in depth-first order — the order the caller passes argument
// leaves in.
func (b *planBuilder) paramSlots(ty relay.Type) (pval, error) {
	switch tt := ty.(type) {
	case *relay.TensorType:
		return pval{slot: b.addParam(tt)}, nil
	case *relay.TupleType:
		fields := make([]pval, len(tt.Fields))
		for i, f := range tt.Fields {
			v, err := b.paramSlots(f)
			if err != nil {
				return pval{}, err
			}
			fields[i] = v
		}
		return pval{fields: fields}, nil
	}
	return pval{}, fmt.Errorf("unsupported parameter type %v", ty)
}

func (b *planBuilder) evalExternal(c *relay.Call, fn *relay.Function) (pval, error) {
	if b.inner {
		return pval{}, fmt.Errorf("runtime: plan: external region inside a primitive body")
	}
	sym := fn.Attr(relay.FnAttrGlobalSymbol)
	cm, ok := b.lib.External[sym]
	if !ok {
		return pval{}, fmt.Errorf("runtime: plan: external module %q not compiled (was Build run with UseNIR?)", sym)
	}
	base := len(b.stack)
	if err := b.pushArgs(c.Args, "external region "+sym); err != nil {
		return pval{}, err
	}
	node := planNode{kind: nodeExternal, label: sym, cm: cm,
		devSummary: planSummary(cm), work: soc.FunctionWork(fn).MACs}
	switch ty := c.CheckedType().(type) {
	case *relay.TensorType:
		out := b.addSlot(ty)
		b.addNode(node, base, out)
		return pval{slot: out}, nil
	case *relay.TupleType:
		fields := make([]pval, len(ty.Fields))
		outs := make([]int32, len(ty.Fields))
		for i, f := range ty.Fields {
			tt, ok := f.(*relay.TensorType)
			if !ok {
				return pval{}, fmt.Errorf("runtime: plan: external %q output %d is not tensor-typed", sym, i)
			}
			outs[i] = b.addSlot(tt)
			fields[i] = pval{slot: outs[i]}
		}
		b.addNode(node, base, outs...)
		return pval{fields: fields}, nil
	}
	return pval{}, fmt.Errorf("runtime: plan: external %q has unsupported result type %v", sym, c.CheckedType())
}

// LowerRegion lowers a compiled NeuroPilot region into the serial sub-plan
// its external node runs, the way a fused primitive's body becomes one:
// each operation becomes the op nodes of its neuron.Stages, the model's
// inputs are the params, its constants Const slots, and every stage result
// is a slot the memory planner stores by the same level + 1 rule as any
// other. cm's model must have passed Model.Check, as Compile and
// NewCompiledModel ensure; a slot read before it is defined is left for the
// plan-safety gate to report. Plan states lower their regions this way
// (BuildPlan, Lib.Plan and Lib.Estimate never do), and so does npc -analyze,
// which audits the result.
func LowerRegion(cm *neuron.CompiledModel) (*ExecPlan, error) {
	b := builderPool.Get().(*planBuilder)
	b.reset(nil)
	defer func() {
		b.reset(nil)
		builderPool.Put(b)
	}()
	m := cm.Model
	slot := make([]int32, len(m.Operands)) // operand → slot, -1 before it is defined
	for i := range slot {
		slot[i] = -1
	}
	operand := func(idx int) int32 {
		if slot[idx] < 0 { // a constant, given its slot at its first read
			slot[idx] = b.addSlot(m.Operands[idx].Type.Relay())
			b.slots[slot[idx]].Const = m.Operands[idx].Const
		}
		return slot[idx]
	}
	for _, idx := range m.Inputs {
		slot[idx] = b.addParam(m.Operands[idx].Type.Relay())
	}
	for oi, op := range m.Operations {
		stages, err := neuron.Stages(m, op)
		if err != nil {
			return nil, fmt.Errorf("runtime: region %q operation %d (%s): %w", m.Name, oi, op.Code, err)
		}
		prev := int32(-1)
		for _, sg := range stages {
			base := len(b.stack)
			for _, a := range sg.Args {
				if a == neuron.Prev {
					b.stack = append(b.stack, prev)
				} else {
					b.stack = append(b.stack, operand(a))
				}
			}
			prev = b.addSlot(sg.Out)
			b.addNode(planNode{kind: nodeOp, label: sg.Kernel, attrs: sg.Attrs, outTy: sg.Out}, base, prev)
		}
		slot[op.Outputs[0]] = prev
	}
	for _, idx := range m.Outputs {
		b.stack = append(b.stack, operand(idx))
	}
	b.setOutputs()
	return b.finish(), nil
}

// finish computes wavefront levels, slot liveness, and the static storage
// assignment, and seals the plan into exactly sized slabs.
func (b *planBuilder) finish() *ExecPlan {
	nodes, slots := b.nodes, b.slots

	// Dependency levels: a node runs one level after its deepest producer.
	// Nodes within a level are mutually independent, so the executor may run
	// them concurrently.
	b.levels = b.levels[:0]
	for i := range nodes {
		n := &nodes[i]
		lvl := int32(0)
		for _, s := range b.index[n.args.lo:n.args.hi] {
			if prod := slots[s].Producer; prod >= 0 && nodes[prod].level+1 > lvl {
				lvl = nodes[prod].level + 1
			}
		}
		n.level = lvl
		for int(lvl) >= len(b.levels) {
			b.levels = append(b.levels, span{})
		}
		n.lane = b.levels[lvl].hi // the level's node count so far
		b.levels[lvl].hi++
	}
	// Each level's node ids, counted above, become a span of the index
	// slab, in id order.
	off := int32(len(b.index))
	for l := range b.levels {
		cnt := b.levels[l].hi
		b.levels[l] = span{off, off}
		off += cnt
	}
	b.index = slices.Grow(b.index, len(nodes))[:off]
	for i := range nodes {
		lv := &b.levels[nodes[i].level]
		b.index[lv.hi] = int32(i)
		lv.hi++
	}

	// Liveness in level granularity: a slot is live from its defining level
	// through the deepest level that reads it.
	lastUse := slices.Grow(b.lastUse[:0], len(slots))[:len(slots)]
	for s := range slots {
		lastUse[s] = -1
		if prod := slots[s].Producer; prod >= 0 {
			lastUse[s] = nodes[prod].level
		}
	}
	for i := range nodes {
		n := &nodes[i]
		for _, s := range b.index[n.args.lo:n.args.hi] {
			lastUse[s] = max(lastUse[s], n.level)
		}
	}
	b.lastUse = lastUse

	// Static storage assignment. A storage freed at level L only re-enters
	// the pool at level L+1: nodes within one level run concurrently, so a
	// same-level reuse could overwrite a buffer another node is still
	// reading. Graph outputs keep dedicated storage forever (the caller
	// reads them after the run). Storages are reused only on an exact
	// (dtype, element-count) match so views always cover the whole buffer.
	// An external region's results are planned like an op's: the Neuron
	// runtime writes into the views it is handed.
	for len(b.freeAt) < len(b.levels) {
		b.freeAt = append(b.freeAt, nil)
	}
	for l := range b.levels {
		b.freeAt[l] = b.freeAt[l][:0]
	}
	avail, storages := b.avail[:0], b.storages[:0]
	naive := 0
	for l, lv := range b.levels {
		if l > 0 {
			avail = append(avail, b.freeAt[l-1]...)
		}
		for _, ni := range b.index[lv.lo:lv.hi] {
			n := &nodes[ni]
			for _, o := range b.index[n.out.lo:n.out.hi] {
				sl := &slots[o]
				dt, elems := sl.Type.DType, sl.Type.Shape.Elems()
				naive += elems * dt.Size()
				sid := int32(-1)
				if !sl.IsOutput {
					for i, id := range avail {
						if storages[id].DType == dt && storages[id].Elems == elems {
							sid = id
							avail = append(avail[:i], avail[i+1:]...)
							break
						}
					}
				}
				if sid < 0 {
					storages = append(storages, storageRec{DType: dt, Elems: elems})
					sid = int32(len(storages) - 1)
				}
				sl.Storage = sid
				if !sl.IsOutput {
					b.freeAt[lastUse[o]] = append(b.freeAt[lastUse[o]], sid)
				}
			}
		}
	}
	b.avail, b.storages = avail, storages

	p := &ExecPlan{
		nodes:      slices.Clone(nodes),
		slots:      slices.Clone(slots),
		storages:   slices.Clone(storages),
		index:      slices.Clone(b.index),
		levels:     slices.Clone(b.levels),
		params:     b.params,
		outputs:    b.outputs,
		NaiveBytes: naive,
	}
	for _, st := range storages {
		p.ArenaBytes += st.Elems * st.DType.Size()
	}
	return p
}
