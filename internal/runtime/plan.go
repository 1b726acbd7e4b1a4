package runtime

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
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
	slot   int
	fields []pval // non-nil for tuple-valued expressions
}

// planNode is one executable step.
type planNode struct {
	id    int
	kind  planNodeKind
	level int // wavefront dependency level
	lane  int // index within the level — the trace row concurrent nodes render on

	// label names the node for profile events and trace spans: the op name,
	// the fused kernel's op chain, or the external region's global symbol.
	label string

	// nodeOp fields.
	opName string
	attrs  relay.Attrs
	outTy  *relay.TensorType

	args []int // input slot ids, tuple arguments pre-flattened
	out  []int // output slot ids (len > 1 only for multi-output externals)

	// nodePrim fields.
	fn  *relay.Function
	sub *ExecPlan

	// nodeExternal fields.
	sym string
	cm  *neuron.CompiledModel
	// devSummary renders the Execution Planner's device placement for trace
	// spans ("apu:12 cpu:3"), precomputed so profiled runs don't re-derive it.
	devSummary string

	// charge is the precomputed TVM-engine cost of this node (op and
	// primitive nodes). External nodes charge through cm.Estimate instead.
	charge soc.Seconds

	// work is the node's MACs (soc.WorkOf, summed over a fused or external
	// body): the wavefront's split estimate.
	work int64
}

// slotInfo describes one value slot: the static type, the producing node,
// the liveness interval in wavefront levels, and the arena storage backing
// it. Every node result is arena-backed, a NeuroPilot region's included: the
// Neuron runtime writes its outputs into the views it is handed. Only graph
// inputs and constants are externally owned (Storage -1).
type slotInfo struct {
	Shape tensor.Shape
	DType tensor.DType
	Quant *tensor.QuantParams

	Producer int // producing node id; -1 for inputs and constants
	Storage  int // arena storage id; -1 when not arena-backed
	DefLevel int // level of the producing node; -1 for inputs/constants
	LastUse  int // highest consumer level (= DefLevel when unconsumed)
	IsOutput bool

	Const     *tensor.Tensor // non-nil for constant slots
	InputName string         // non-empty for graph-input slots
}

// storageRec is one arena buffer: slots only share a storage when their
// dtype and element count match exactly, so views are always whole-buffer.
type storageRec struct {
	DType tensor.DType
	Elems int
}

// ExecPlan is a lowered, memory-planned form of a module's main function.
type ExecPlan struct {
	nodes  []*planNode
	slots  []*slotInfo
	levels [][]int // node ids per dependency level

	params  []int          // input slots in declaration order
	inputs  map[string]int // input name → slot
	outputs []int          // graph-output slots in result order

	storages []storageRec

	// NaiveBytes is what one-buffer-per-node allocation would use for the
	// arena-backed intermediates; ArenaBytes is what the planner's reuse
	// actually allocates. The ratio is the memory planner's payoff.
	NaiveBytes int
	ArenaBytes int

	// TunedNodes counts the op and fused-kernel nodes (including sub-plan
	// ops) whose task signature resolved to a non-default tuned config in
	// the dispatch table installed when the plan was lowered. Zero when no
	// table is loaded — the graceful-fallback path.
	TunedNodes int
}

// NumNodes returns the executable node count.
func (p *ExecPlan) NumNodes() int { return len(p.nodes) }

// NumLevels returns the wavefront depth.
func (p *ExecPlan) NumLevels() int { return len(p.levels) }

// NumStorages returns how many arena buffers the memory planner allocated.
func (p *ExecPlan) NumStorages() int { return len(p.storages) }

// String summarizes the plan (the executor's debug view).
func (p *ExecPlan) String() string {
	tuned := ""
	if p.TunedNodes > 0 {
		tuned = fmt.Sprintf(", %d tuned", p.TunedNodes)
	}
	return fmt.Sprintf("ExecPlan{%d nodes, %d levels, %d slots, %d storages, arena %d B (naive %d B)%s}",
		len(p.nodes), len(p.levels), len(p.slots), len(p.storages), p.ArenaBytes, p.NaiveBytes, tuned)
}

// planBuilder lowers relay expressions into an ExecPlan.
type planBuilder struct {
	lib   *Lib
	plan  *ExecPlan
	memo  map[relay.Expr]pval
	env   map[*relay.Var]pval
	inner bool // building a primitive sub-plan
}

// BuildPlan lowers the library's main function into an execution plan. It
// fails on constructs the planned executor does not support (plain
// non-primitive function calls, tuple-typed parameters); callers fall back
// to the interpreting executor in that case.
func BuildPlan(lib *Lib) (*ExecPlan, error) {
	main := lib.Module.Main()
	b := newPlanBuilder(lib, false)
	for _, prm := range main.Params {
		tt, ok := prm.TypeAnnotation.(*relay.TensorType)
		if !ok {
			return nil, fmt.Errorf("runtime: plan: input %q is not tensor-typed", prm.Name)
		}
		s := b.addSlot(tt)
		b.plan.slots[s].InputName = prm.Name
		b.plan.inputs[prm.Name] = s
		b.plan.params = append(b.plan.params, s)
		b.env[prm] = pval{slot: s}
	}
	root, err := b.eval(main.Body)
	if err != nil {
		return nil, err
	}
	if root.fields != nil {
		for i, f := range root.fields {
			if f.fields != nil {
				return nil, fmt.Errorf("runtime: plan: nested tuple in graph output %d", i)
			}
			b.plan.outputs = append(b.plan.outputs, f.slot)
		}
	} else {
		b.plan.outputs = append(b.plan.outputs, root.slot)
	}
	for _, s := range b.plan.outputs {
		b.plan.slots[s].IsOutput = true
	}
	b.finish()
	// The one gate: the safety checker re-derives levels and liveness from
	// the exported node list alone and audits the storage assignment and the
	// executed wavefronts against them (see internal/analysis), so a planner
	// bug surfaces as a build-time diagnostic, not a corrupted inference.
	if err := analysis.PlanSafety(b.plan.View()).Err(); err != nil {
		return nil, fmt.Errorf("runtime: built plan failed verification: %w", err)
	}
	return b.plan, nil
}

func newPlanBuilder(lib *Lib, inner bool) *planBuilder {
	return &planBuilder{
		lib:   lib,
		plan:  &ExecPlan{inputs: map[string]int{}},
		memo:  map[relay.Expr]pval{},
		env:   map[*relay.Var]pval{},
		inner: inner,
	}
}

func (b *planBuilder) addSlot(tt *relay.TensorType) int {
	b.plan.slots = append(b.plan.slots, &slotInfo{
		Shape:    tt.Shape,
		DType:    tt.DType,
		Quant:    tt.Quant,
		Producer: -1,
		Storage:  -1,
		DefLevel: -1,
	})
	return len(b.plan.slots) - 1
}

func (b *planBuilder) addNode(n *planNode) int {
	n.id = len(b.plan.nodes)
	b.plan.nodes = append(b.plan.nodes, n)
	for _, o := range n.out {
		b.plan.slots[o].Producer = n.id
	}
	return n.id
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
		b.plan.slots[s].Const = n.Value
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

// flattenArgs resolves call arguments to flat slot lists, mirroring the
// interpreter's tuple flattening for operator calls (concatenate).
func (b *planBuilder) flattenArgs(args []relay.Expr, what string) ([]int, error) {
	flat := make([]int, 0, len(args))
	for _, a := range args {
		v, err := b.eval(a)
		if err != nil {
			return nil, err
		}
		if v.fields == nil {
			flat = append(flat, v.slot)
			continue
		}
		for _, f := range v.fields {
			if f.fields != nil {
				return nil, fmt.Errorf("runtime: plan: nested tuple argument to %s", what)
			}
			flat = append(flat, f.slot)
		}
	}
	return flat, nil
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
	args, err := b.flattenArgs(c.Args, c.Op.Name)
	if err != nil {
		return pval{}, err
	}
	outTy, ok := c.CheckedType().(*relay.TensorType)
	if !ok {
		return pval{}, fmt.Errorf("runtime: plan: op %s has non-tensor checked type %v", c.Op.Name, c.CheckedType())
	}
	out := b.addSlot(outTy)
	w := soc.WorkOf(c)
	b.addNode(&planNode{
		kind:   nodeOp,
		opName: c.Op.Name,
		label:  c.Op.Name,
		attrs:  c.Attrs,
		outTy:  outTy,
		args:   args,
		out:    []int{out},
		charge: b.lib.SoC.CPU.OpTime(w, soc.TVMEff(w)),
		work:   w.MACs,
	})
	if planNodeTuned(c) {
		b.plan.TunedNodes++
	}
	return pval{slot: out}, nil
}

// planNodeTuned consults the installed tuning table at lowering time: it
// reports whether this op call's task signature resolves to a non-default
// kernel config, i.e. whether the dispatch the plan encodes will deviate
// from the built-in defaults. Calls with no task (topi.TaskKeyOf) and a
// missing table fall back to false.
func planNodeTuned(c *relay.Call) bool {
	tbl := topi.Tuning()
	if tbl == nil {
		return false
	}
	key, ok := topi.TaskKeyOf(c)
	if !ok {
		return false
	}
	cfg, ok := tbl.Lookup(key)
	return ok && !cfg.IsDefault()
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
func primLabel(fn *relay.Function) string {
	var ops []string
	relay.PostOrderVisit(fn.Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op != nil {
			ops = append(ops, c.Op.Name)
		}
	})
	if len(ops) == 0 {
		return "fused:identity"
	}
	out := "fused:" + ops[0]
	for _, o := range ops[1:] {
		out += "+" + o
	}
	return out
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
	var args []int
	for i, a := range c.Args {
		v, err := b.eval(a)
		if err != nil {
			return pval{}, err
		}
		before := len(args)
		args = appendLeaves(args, v)
		if got, want := len(args)-before, countLeaves(fn.Params[i].TypeAnnotation); got != want {
			return pval{}, fmt.Errorf("runtime: plan: primitive argument %d has %d tensor leaves, parameter wants %d", i, got, want)
		}
	}
	sub, err := buildSubPlan(b.lib, fn)
	if err != nil {
		return pval{}, err
	}
	outTy, ok := c.CheckedType().(*relay.TensorType)
	if !ok {
		return pval{}, fmt.Errorf("runtime: plan: primitive with non-tensor result type %v", c.CheckedType())
	}
	out := b.addSlot(outTy)
	b.plan.TunedNodes += sub.TunedNodes
	fw := soc.FunctionWork(fn)
	b.addNode(&planNode{
		kind:   nodePrim,
		fn:     fn,
		label:  primLabel(fn),
		sub:    sub,
		outTy:  outTy,
		args:   args,
		out:    []int{out},
		charge: b.lib.SoC.CPU.OpTime(fw, soc.TVMEff(fw)),
		work:   fw.MACs,
	})
	return pval{slot: out}, nil
}

// appendLeaves collects a pval's tensor slots in depth-first order.
func appendLeaves(dst []int, v pval) []int {
	if v.fields == nil {
		return append(dst, v.slot)
	}
	for _, f := range v.fields {
		dst = appendLeaves(dst, f)
	}
	return dst
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
func buildSubPlan(lib *Lib, fn *relay.Function) (*ExecPlan, error) {
	sb := newPlanBuilder(lib, true)
	for i, prm := range fn.Params {
		v, err := sb.paramSlots(prm.TypeAnnotation)
		if err != nil {
			return nil, fmt.Errorf("runtime: plan: primitive parameter %d: %w", i, err)
		}
		sb.env[prm] = v
	}
	root, err := sb.eval(fn.Body)
	if err != nil {
		return nil, err
	}
	if root.fields != nil {
		return nil, fmt.Errorf("runtime: plan: tuple-valued primitive body is not plannable")
	}
	sb.plan.outputs = []int{root.slot}
	sb.plan.slots[root.slot].IsOutput = true
	sb.finish()
	return sb.plan, nil
}

// paramSlots allocates the input slot(s) for one sub-plan parameter: a
// single slot for a tensor, a slot tree for a tuple. Every leaf is appended
// to plan.params in depth-first order — the order the caller passes argument
// leaves in.
func (b *planBuilder) paramSlots(ty relay.Type) (pval, error) {
	switch tt := ty.(type) {
	case *relay.TensorType:
		s := b.addSlot(tt)
		b.plan.params = append(b.plan.params, s)
		return pval{slot: s}, nil
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
	args, err := b.flattenArgs(c.Args, "external region "+sym)
	if err != nil {
		return pval{}, err
	}
	node := &planNode{kind: nodeExternal, sym: sym, label: sym, cm: cm, args: args,
		devSummary: planSummary(cm), work: soc.FunctionWork(fn).MACs}
	switch ty := c.CheckedType().(type) {
	case *relay.TensorType:
		node.out = []int{b.addSlot(ty)}
		b.addNode(node)
		return pval{slot: node.out[0]}, nil
	case *relay.TupleType:
		fields := make([]pval, len(ty.Fields))
		for i, f := range ty.Fields {
			tt, ok := f.(*relay.TensorType)
			if !ok {
				return pval{}, fmt.Errorf("runtime: plan: external %q output %d is not tensor-typed", sym, i)
			}
			s := b.addSlot(tt)
			node.out = append(node.out, s)
			fields[i] = pval{slot: s}
		}
		b.addNode(node)
		return pval{fields: fields}, nil
	}
	return pval{}, fmt.Errorf("runtime: plan: external %q has unsupported result type %v", sym, c.CheckedType())
}

// finish computes wavefront levels, slot liveness, and the static storage
// assignment.
func (b *planBuilder) finish() {
	p := b.plan

	// Dependency levels: a node runs one level after its deepest producer.
	// Nodes within a level are mutually independent, so the executor may run
	// them concurrently.
	maxLevel := -1
	for _, n := range p.nodes {
		lvl := 0
		for _, s := range n.args {
			if prod := p.slots[s].Producer; prod >= 0 {
				if d := p.nodes[prod].level + 1; d > lvl {
					lvl = d
				}
			}
		}
		n.level = lvl
		for _, o := range n.out {
			p.slots[o].DefLevel = lvl
		}
		if lvl > maxLevel {
			maxLevel = lvl
		}
	}
	p.levels = make([][]int, maxLevel+1)
	for _, n := range p.nodes {
		n.lane = len(p.levels[n.level])
		p.levels[n.level] = append(p.levels[n.level], n.id)
	}

	// Liveness in level granularity: a slot is live from its defining level
	// through the deepest level that reads it.
	for _, sl := range p.slots {
		sl.LastUse = sl.DefLevel
	}
	for _, n := range p.nodes {
		for _, s := range n.args {
			if n.level > p.slots[s].LastUse {
				p.slots[s].LastUse = n.level
			}
		}
	}

	// Static storage assignment. A storage freed at level L only re-enters
	// the pool at level L+1: nodes within one level run concurrently, so a
	// same-level reuse could overwrite a buffer another node is still
	// reading. Graph outputs keep dedicated storage forever (the caller
	// reads them after the run). Storages are reused only on an exact
	// (dtype, element-count) match so views always cover the whole buffer.
	// An external region's results are planned like an op's: the Neuron
	// runtime writes into the views it is handed.
	freeAt := map[int][]int{}
	var avail []int
	for lvl := 0; lvl <= maxLevel; lvl++ {
		if lvl > 0 {
			avail = append(avail, freeAt[lvl-1]...)
		}
		for _, ni := range p.levels[lvl] {
			for _, o := range p.nodes[ni].out {
				sl := p.slots[o]
				p.NaiveBytes += sl.Shape.Elems() * sl.DType.Size()
				sid := -1
				if !sl.IsOutput {
					for i, id := range avail {
						if p.storages[id].DType == sl.DType && p.storages[id].Elems == sl.Shape.Elems() {
							sid = id
							avail = append(avail[:i], avail[i+1:]...)
							break
						}
					}
				}
				if sid < 0 {
					p.storages = append(p.storages, storageRec{DType: sl.DType, Elems: sl.Shape.Elems()})
					sid = len(p.storages) - 1
				}
				sl.Storage = sid
				if !sl.IsOutput {
					freeAt[sl.LastUse] = append(freeAt[sl.LastUse], sid)
				}
			}
		}
	}
	for _, st := range p.storages {
		p.ArenaBytes += st.Elems * st.DType.Size()
	}
}
