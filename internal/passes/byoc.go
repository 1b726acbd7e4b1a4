package passes

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/relay"
)

// The BYOC partitioner: AnnotateTarget marks the operator calls an external
// compiler supports, MergeCompilerRegions grows maximal convex regions out of
// the marks, and PartitionGraph lifts each region into a module-level
// function tagged Compiler=<name> that the external codegen consumes. The
// three stages are implemented together in PartitionForCompiler; the
// PartitionOptions let ablations disable region merging (every supported op
// becomes its own region — the paper's "too many subgraphs" pathology on the
// anti-spoofing model).

// PartitionOptions configures PartitionForCompiler.
type PartitionOptions struct {
	// MergeRegions enables MergeCompilerRegions; when false every supported
	// call is lifted as its own single-op region.
	MergeRegions bool
	// MinRegionSize drops regions with fewer ops than this back to the host
	// (0 or 1 keeps everything).
	MinRegionSize int
}

// DefaultPartitionOptions mirrors TVM's defaults.
func DefaultPartitionOptions() PartitionOptions {
	return PartitionOptions{MergeRegions: true, MinRegionSize: 1}
}

// Supported decides whether the external compiler can execute a call.
type Supported func(*relay.Call) bool

// PartitionForCompiler runs annotate → merge → partition for one external
// compiler over the module's main function. Returned module has rewritten
// main plus one definition per region.
func PartitionForCompiler(m *relay.Module, compiler string, sup Supported, opts PartitionOptions) (*relay.Module, error) {
	if err := relay.InferModule(m); err != nil {
		return nil, err
	}
	p := &partitioner{
		compiler:  compiler,
		supported: sup,
		opts:      opts,
	}
	return p.run(m)
}

// partitioner holds a dense view of the main scope. analyze gives every
// expression a post-order id, so an operand always has a smaller id than its
// consumer and ids double as a topological order; everything after analyze
// works on ids and slices, never on expression-keyed maps.
type partitioner struct {
	compiler  string
	supported Supported
	opts      PartitionOptions

	nodes []relay.Expr // id → expression
	// Operand and consumer lists in CSR form: the operands of id are
	// operands[operandOff[id]:operandOff[id+1]] — call arguments in order, then
	// the callee of a function call — and likewise for consumers.
	operandOff, operands   []int32
	consumerOff, consumers []int32
	sup                    []bool  // supported operator calls
	parent                 []int32 // union-find over ids; a root names a region

	// Region summaries, one row of `words` uint64 per id, meaningful on
	// union-find roots of supported calls: the region's members, the union of
	// its members' strict descendants, and the union of their strict
	// ancestors. A merge ORs the absorbed root's rows into the surviving one.
	words            int
	member, down, up []uint64

	// Lifting scratch, indexed by id. cloneOf[id] is valid for the region
	// being lifted when cloneStamp[id] equals that region's stamp.
	cloneOf    []relay.Expr
	cloneStamp []int32
	regionSeq  int
}

func (p *partitioner) run(m *relay.Module) (*relay.Module, error) {
	main := m.Main()
	p.analyze(main.Body)

	// Stage 2: merge regions along supported producer→consumer edges, unless
	// doing so would create a cycle through the host graph.
	if p.opts.MergeRegions {
		p.supportedEdges(p.tryMerge)
	}

	// Stage 3: lift regions.
	out := m.Clone()
	newBody, err := p.partitionBody(out)
	if err != nil {
		return nil, err
	}
	nf := relay.NewFunc(main.Params, newBody)
	for k, v := range main.FnAttrs {
		nf.FnAttrs[k] = v
	}
	out.SetMain(nf)
	if err := relay.InferModule(out); err != nil {
		return nil, fmt.Errorf("partition produced ill-typed module: %w", err)
	}
	return out, nil
}

func (p *partitioner) operandsOf(id int32) []int32 {
	return p.operands[p.operandOff[id]:p.operandOff[id+1]]
}

func (p *partitioner) consumersOf(id int32) []int32 {
	return p.consumers[p.consumerOff[id]:p.consumerOff[id+1]]
}

func (p *partitioner) row(set []uint64, id int32) []uint64 {
	return set[int(id)*p.words : (int(id)+1)*p.words]
}

func hasBit(set []uint64, id int32) bool { return set[id>>6]>>(uint32(id)&63)&1 != 0 }

func setBit(set []uint64, id int32) { set[id>>6] |= 1 << (uint32(id) & 63) }

func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// analyze numbers the main scope in post-order, marks the supported calls,
// and builds the operand and consumer lists and the per-node reachability
// rows that seed the region summaries. Nested function bodies are opaque to
// partitioning: a Function is a leaf.
func (p *partitioner) analyze(body relay.Expr) {
	// CountNodes also counts inside nested functions, so it is an upper bound.
	bound := relay.CountNodes(body)
	ids := make(map[relay.Expr]int32, bound)
	p.nodes = make([]relay.Expr, 0, bound)
	p.sup = make([]bool, 0, bound)
	p.operandOff = make([]int32, 1, bound+1)
	var pending []int32 // operand ids of the expressions still being walked
	var walk func(e relay.Expr) int32
	walk = func(e relay.Expr) int32 {
		if id, ok := ids[e]; ok {
			return id
		}
		mark := len(pending)
		sup := false
		switch n := e.(type) {
		case *relay.Call:
			for _, a := range n.Args {
				pending = append(pending, walk(a))
			}
			if n.Fn != nil {
				pending = append(pending, walk(n.Fn))
			}
			sup = n.Op != nil && p.supported(n)
		case *relay.Tuple:
			for _, f := range n.Fields {
				pending = append(pending, walk(f))
			}
		case *relay.TupleGetItem:
			pending = append(pending, walk(n.Tuple))
		}
		id := int32(len(p.nodes))
		ids[e] = id
		p.nodes = append(p.nodes, e)
		p.sup = append(p.sup, sup)
		p.operands = append(p.operands, pending[mark:]...)
		p.operandOff = append(p.operandOff, int32(len(p.operands)))
		pending = pending[:mark]
		return id
	}
	walk(body)

	n := len(p.nodes)
	p.consumerOff = make([]int32, n+1)
	for _, q := range p.operands {
		p.consumerOff[q+1]++
	}
	for i := 0; i < n; i++ {
		p.consumerOff[i+1] += p.consumerOff[i]
	}
	p.consumers = make([]int32, len(p.operands))
	fill := append([]int32(nil), p.consumerOff[:n]...)
	for id := int32(0); id < int32(n); id++ {
		for _, q := range p.operandsOf(id) {
			p.consumers[fill[q]] = id
			fill[q]++
		}
	}

	p.parent = make([]int32, n)
	p.words = (n + 63) / 64
	sets := make([]uint64, 3*n*p.words)
	p.member, p.down, p.up = sets[:n*p.words], sets[n*p.words:2*n*p.words], sets[2*n*p.words:]
	for id := int32(0); id < int32(n); id++ {
		p.parent[id] = id
		if p.sup[id] {
			setBit(p.row(p.member, id), id)
		}
		up := p.row(p.up, id)
		for _, q := range p.operandsOf(id) {
			orInto(up, p.row(p.up, q))
			setBit(up, q)
		}
	}
	for id := int32(n) - 1; id >= 0; id-- {
		down := p.row(p.down, id)
		for _, s := range p.consumersOf(id) {
			orInto(down, p.row(p.down, s))
			setBit(down, s)
		}
	}
}

// supportedEdges calls visit(a, c) for every supported producer a feeding a
// supported consumer c — directly or through one input tuple — consumers in
// post-order, producers in argument order.
func (p *partitioner) supportedEdges(visit func(a, c int32)) {
	for c := int32(0); c < int32(len(p.nodes)); c++ {
		if !p.sup[c] {
			continue
		}
		for _, a := range p.operandsOf(c) {
			if _, isTuple := p.nodes[a].(*relay.Tuple); isTuple {
				for _, f := range p.operandsOf(a) {
					if p.sup[f] {
						visit(f, c)
					}
				}
			} else if p.sup[a] {
				visit(a, c)
			}
		}
	}
}

func (p *partitioner) find(id int32) int32 {
	for p.parent[id] != id {
		p.parent[id] = p.parent[p.parent[id]] // path halving
		id = p.parent[id]
	}
	return id
}

// tryMerge unifies the regions of producer a and consumer c unless the
// merged region would be non-convex: a path from region(a) through a host
// node back into region(c) would force the host to both consume and feed the
// lifted function, i.e. a cycle.
func (p *partitioner) tryMerge(a, c int32) {
	ra, rc := p.find(a), p.find(c)
	if ra == rc || !p.convex(ra, rc) {
		return
	}
	p.parent[ra] = rc
	orInto(p.row(p.member, rc), p.row(p.member, ra))
	orInto(p.row(p.down, rc), p.row(p.down, ra))
	orInto(p.row(p.up, rc), p.row(p.up, ra))
}

// convex reports whether the union of the regions rooted at ra and rc has no
// outside node on a path member → outside → member. Such a node is both a
// descendant and an ancestor of some member, so it is a bit of
// (down_a ∪ down_c) ∩ (up_a ∪ up_c) that is neither a member nor a
// transparent tuple of the union.
func (p *partitioner) convex(ra, rc int32) bool {
	ma, mc := p.row(p.member, ra), p.row(p.member, rc)
	da, dc := p.row(p.down, ra), p.row(p.down, rc)
	ua, uc := p.row(p.up, ra), p.row(p.up, rc)
	for i := range ma {
		between := (da[i] | dc[i]) & (ua[i] | uc[i]) &^ (ma[i] | mc[i])
		for ; between != 0; between &= between - 1 {
			id := int32(i*64 + bits.TrailingZeros64(between))
			if !p.tupleTransparent(id, ma, mc) {
				return false
			}
		}
	}
	return true
}

// tupleTransparent reports whether id is a Tuple that merely routes values
// between members of the region ma ∪ mc (a concatenate input tuple whose
// consumers are all members), in which case it counts as inside the region
// for convexity and output analysis.
func (p *partitioner) tupleTransparent(id int32, ma, mc []uint64) bool {
	if _, isTuple := p.nodes[id].(*relay.Tuple); !isTuple {
		return false
	}
	consumers := p.consumersOf(id)
	for _, s := range consumers {
		if !hasBit(ma, s) && !hasBit(mc, s) {
			return false
		}
	}
	return len(consumers) > 0
}

// regionInfo captures one liftable region.
type regionInfo struct {
	stamp   int32    // 1-based position among the lifted regions
	in      []uint64 // member set
	members []int32  // topo order
	outputs []int32  // members with consumers outside the region
	lifting bool     // liftRegion is running for this region
	call    relay.Expr
}

// errRegionCycle reports two regions that each consume an output of the
// other. Convexity is checked per region against nodes, so it cannot rule
// this out: {x, y} and {p, q, r} with x → p → r and q → r, q → y are both
// convex, yet neither lifted function can be called before the other.
var errRegionCycle = errors.New("partition: compiler regions depend on each other")

func (p *partitioner) collectRegions() []*regionInfo {
	byRoot := make([]*regionInfo, len(p.nodes))
	var regions []*regionInfo
	for id := int32(0); id < int32(len(p.nodes)); id++ {
		if !p.sup[id] {
			continue
		}
		root := p.find(id)
		r := byRoot[root]
		if r == nil {
			r = &regionInfo{in: p.row(p.member, root)}
			byRoot[root] = r
			regions = append(regions, r)
		}
		r.members = append(r.members, id)
	}
	bodyRoot := int32(len(p.nodes)) - 1
	for _, r := range regions {
		for _, m := range r.members {
			external := m == bodyRoot
			for _, s := range p.consumersOf(m) {
				if !hasBit(r.in, s) && !p.tupleTransparent(s, r.in, r.in) {
					external = true
				}
			}
			if external {
				r.outputs = append(r.outputs, m)
			}
		}
	}
	// Filter small regions.
	if p.opts.MinRegionSize > 1 {
		var kept []*regionInfo
		for _, r := range regions {
			if len(r.members) >= p.opts.MinRegionSize {
				kept = append(kept, r)
			}
		}
		regions = kept
	}
	for i, r := range regions {
		r.stamp = int32(i) + 1
	}
	return regions
}

// partitionBody rewrites the body, lifting each region into an external
// function registered in mod.
func (p *partitioner) partitionBody(mod *relay.Module) (relay.Expr, error) {
	regions := p.collectRegions()
	// Output member -> (region, output index).
	type outRef struct {
		r   *regionInfo
		idx int
	}
	outOf := make([]outRef, len(p.nodes))
	for _, r := range regions {
		for i, o := range r.outputs {
			outOf[o] = outRef{r, i}
		}
	}

	memo := make([]relay.Expr, len(p.nodes))
	p.cloneOf = make([]relay.Expr, len(p.nodes))
	p.cloneStamp = make([]int32, len(p.nodes))
	var rerr error

	var transform func(id int32) relay.Expr
	transform = func(id int32) relay.Expr {
		e := p.nodes[id]
		if rerr != nil {
			return e
		}
		if out := memo[id]; out != nil {
			return out
		}
		var out relay.Expr
		switch n := e.(type) {
		case *relay.Call:
			if ref := outOf[id]; ref.r != nil {
				if ref.r.call == nil {
					if ref.r.lifting {
						rerr = errRegionCycle
						return e
					}
					ref.r.lifting = true
					call, err := p.liftRegion(ref.r, mod, transform)
					if err != nil {
						rerr = err
					}
					if rerr != nil { // this lift's, or one from a region feeding it
						return e
					}
					ref.r.call = call
				}
				if len(ref.r.outputs) == 1 {
					out = ref.r.call
				} else {
					out = relay.NewTupleGetItem(ref.r.call, ref.idx)
				}
				break
			}
			operands := p.operandsOf(id)
			newArgs := make([]relay.Expr, len(n.Args))
			for i := range n.Args {
				newArgs[i] = transform(operands[i])
			}
			newFn := n.Fn
			if n.Fn != nil {
				newFn = transform(operands[len(n.Args)])
			}
			out = &relay.Call{Op: n.Op, Fn: newFn, Args: newArgs, Attrs: n.Attrs}
		case *relay.Tuple:
			fields := make([]relay.Expr, len(n.Fields))
			for i, f := range p.operandsOf(id) {
				fields[i] = transform(f)
			}
			out = relay.NewTuple(fields)
		case *relay.TupleGetItem:
			out = relay.NewTupleGetItem(transform(p.operandsOf(id)[0]), n.Index)
		default:
			out = e
		}
		memo[id] = out
		return out
	}
	res := transform(int32(len(p.nodes)) - 1)
	return res, rerr
}

// liftRegion clones a region into fn(params){...} with the Compiler and
// global_symbol attributes, registers it in the module, and returns the call
// expression feeding it the transformed external inputs.
func (p *partitioner) liftRegion(r *regionInfo, mod *relay.Module, transform func(int32) relay.Expr) (relay.Expr, error) {
	var params []*relay.Var
	var inputs []int32 // the external input behind each param

	var cloneExpr func(id int32) relay.Expr
	cloneExpr = func(id int32) relay.Expr {
		if p.cloneStamp[id] == r.stamp {
			return p.cloneOf[id]
		}
		var out relay.Expr
		switch n := p.nodes[id].(type) {
		case *relay.Constant:
			out = n // constants are baked into the external module
		case *relay.Tuple:
			// Tuples feeding concatenate-style members are cloned inline.
			fields := make([]relay.Expr, len(n.Fields))
			for i, f := range p.operandsOf(id) {
				fields[i] = cloneExpr(f)
			}
			out = relay.NewTuple(fields)
		case *relay.Call:
			if hasBit(r.in, id) {
				newArgs := make([]relay.Expr, len(n.Args))
				for i, a := range p.operandsOf(id)[:len(n.Args)] {
					newArgs[i] = cloneExpr(a)
				}
				out = &relay.Call{Op: n.Op, Args: newArgs, Attrs: n.Attrs}
			}
		}
		if out == nil {
			// An external input becomes a region parameter, one per distinct
			// source expression.
			v := relay.NewVar("nirp"+strconv.Itoa(len(params)), p.nodes[id].CheckedType())
			params = append(params, v)
			inputs = append(inputs, id)
			out = v
		}
		p.cloneOf[id], p.cloneStamp[id] = out, r.stamp
		return out
	}

	var bodyExpr relay.Expr
	if len(r.outputs) == 1 {
		bodyExpr = cloneExpr(r.outputs[0])
	} else {
		fields := make([]relay.Expr, len(r.outputs))
		for i, o := range r.outputs {
			fields[i] = cloneExpr(o)
		}
		bodyExpr = relay.NewTuple(fields)
	}
	// The outer arguments are transformed only now that the clone is done:
	// transform may lift the regions feeding this one, and they share the
	// clone scratch.
	outerArgs := make([]relay.Expr, len(inputs))
	for i, id := range inputs {
		outerArgs[i] = transform(id)
	}
	fn := relay.NewFunc(params, bodyExpr)
	name := fmt.Sprintf("%s_%d", p.compiler, p.regionSeq)
	p.regionSeq++
	fn.FnAttrs[relay.FnAttrCompiler] = p.compiler
	fn.FnAttrs[relay.FnAttrGlobalSymbol] = name
	if err := mod.Add(name, fn); err != nil {
		return nil, err
	}
	return relay.NewFnCall(fn, outerArgs), nil
}
