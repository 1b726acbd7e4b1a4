package passes

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/relay"
)

// The reference partitioner: the map-and-BFS implementation that
// PartitionForCompiler had before the dense-id rewrite, kept as it was (only
// renamed, recording its merge decisions, and reporting errRegionCycle where
// it used to recurse without end) so the differential tests have an
// independent formulation of the same predicate to compare against. Every
// merge attempt scans all calls for the candidate region and runs a BFS over
// the whole scope; that cost is why it lives in a test file.

// mergeDecision is one merge attempt between two distinct regions.
type mergeDecision struct {
	a, c   *relay.Call
	merged bool
}

func oraclePartition(m *relay.Module, compiler string, sup Supported, opts PartitionOptions) (*relay.Module, *oraclePartitioner, error) {
	if err := relay.InferModule(m); err != nil {
		return nil, nil, err
	}
	o := &oraclePartitioner{compiler: compiler, supported: sup, opts: opts}
	out, err := o.run(m)
	return out, o, err
}

// checkAgainstOracle partitions m with PartitionForCompiler and with the
// oracle and reports, through t.Errorf, any difference in outcome: the error
// status, the module text (region names, members, params, outputs, main), the
// sequence of merge decisions, or a region the oracle's BFS finds non-convex.
// The one error both sides may return is errRegionCycle. It returns the
// partitioned module, nil when partitioning failed.
func checkAgainstOracle(t testing.TB, m *relay.Module, sup Supported, opts PartitionOptions) *relay.Module {
	t.Helper()
	want, o, werr := oraclePartition(m, "ext", sup, opts)
	got, gerr := PartitionForCompiler(m, "ext", sup, opts)
	switch {
	case (werr != nil) != (gerr != nil):
		t.Errorf("%+v: PartitionForCompiler error %v, oracle error %v", opts, gerr, werr)
	case gerr != nil && !errors.Is(gerr, errRegionCycle):
		t.Errorf("%+v: PartitionForCompiler: %v", opts, gerr)
	case gerr == nil:
		if g, w := relay.PrintModule(got), relay.PrintModule(want); g != w {
			t.Errorf("%+v: partitioned module differs from the oracle's: %s", opts, firstDiff(g, w))
		}
	}
	if o == nil {
		return nil // m is ill-typed
	}

	// Replay analyze + merge on a fresh partitioner to observe each decision.
	p := &partitioner{compiler: "ext", supported: sup, opts: opts}
	p.analyze(m.Main().Body)
	var decisions []mergeDecision
	if opts.MergeRegions {
		p.supportedEdges(func(a, c int32) {
			if p.find(a) == p.find(c) {
				return
			}
			p.tryMerge(a, c)
			decisions = append(decisions, mergeDecision{
				p.nodes[a].(*relay.Call), p.nodes[c].(*relay.Call), p.find(a) == p.find(c)})
		})
	}
	if len(decisions) != len(o.decisions) {
		t.Errorf("%+v: %d merge attempts, oracle made %d", opts, len(decisions), len(o.decisions))
	}
	for i := 0; i < len(decisions) && i < len(o.decisions); i++ {
		if decisions[i] != o.decisions[i] {
			t.Errorf("%+v: merge attempt %d: got %s, oracle %s", opts, i,
				describeDecision(decisions[i]), describeDecision(o.decisions[i]))
			break
		}
	}

	regions := p.collectRegions()
	if got != nil && len(got.ExternalFuncs("ext")) != len(regions) {
		t.Errorf("%+v: module has %d external functions, partitioner formed %d regions",
			opts, len(got.ExternalFuncs("ext")), len(regions))
	}
	for i, r := range regions {
		members := map[*relay.Call]bool{}
		for _, id := range r.members {
			members[p.nodes[id].(*relay.Call)] = true
		}
		if o.pathThroughOutside(members) {
			t.Errorf("%+v: region %d (%d members) is not convex", opts, i, len(members))
		}
	}
	return got
}

func describeDecision(d mergeDecision) string {
	verb := "refuse"
	if d.merged {
		verb = "merge"
	}
	return fmt.Sprintf("%s %s@%p → %s@%p", verb, d.a.Op.Name, d.a, d.c.Op.Name, d.c)
}

// firstDiff names the first line on which two dumps differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(g), len(w))
}

type oraclePartitioner struct {
	compiler  string
	supported Supported
	opts      PartitionOptions

	order     []*relay.Call // supported+unsupported calls, post-order
	group     map[*relay.Call]*fuseGroup
	isSup     map[*relay.Call]bool
	succ      map[relay.Expr][]relay.Expr // consumer edges over the whole scope
	effArgs   map[*relay.Call][]relay.Expr
	regionSeq int

	decisions []mergeDecision // every attempt between two distinct regions
}

func (p *oraclePartitioner) run(m *relay.Module) (*relay.Module, error) {
	main := m.Main()
	p.analyze(main.Body)

	// Stage 2: merge regions along supported producer→consumer edges, unless
	// doing so would create a cycle through the host graph.
	if p.opts.MergeRegions {
		for _, c := range p.order {
			if !p.isSup[c] {
				continue
			}
			for _, arg := range p.effArgs[c] {
				a, ok := arg.(*relay.Call)
				if !ok || !p.isSup[a] {
					continue
				}
				p.tryMerge(a, c)
			}
		}
	}

	// Stage 3: lift regions.
	out := m.Clone()
	newBody, err := p.partitionBody(main.Body, out)
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

// analyze builds post-order, supported marks, effective args (tuples
// flattened) and the successor relation of the main scope.
func (p *oraclePartitioner) analyze(body relay.Expr) {
	p.group = map[*relay.Call]*fuseGroup{}
	p.isSup = map[*relay.Call]bool{}
	p.succ = map[relay.Expr][]relay.Expr{}
	p.effArgs = map[*relay.Call][]relay.Expr{}

	visited := map[relay.Expr]bool{}
	var walk func(e relay.Expr)
	walk = func(e relay.Expr) {
		if e == nil || visited[e] {
			return
		}
		visited[e] = true
		switch n := e.(type) {
		case *relay.Call:
			var eff []relay.Expr
			for _, a := range n.Args {
				walk(a)
				p.succ[a] = append(p.succ[a], n)
				if tup, ok := a.(*relay.Tuple); ok {
					eff = append(eff, tup.Fields...)
				} else {
					eff = append(eff, a)
				}
			}
			if n.Fn != nil {
				walk(n.Fn)
				p.succ[n.Fn] = append(p.succ[n.Fn], n)
			}
			p.effArgs[n] = eff
			if n.Op != nil {
				p.order = append(p.order, n)
				p.group[n] = &fuseGroup{}
				p.isSup[n] = p.supported(n)
			}
		case *relay.Tuple:
			for _, f := range n.Fields {
				walk(f)
				p.succ[f] = append(p.succ[f], n)
			}
		case *relay.TupleGetItem:
			walk(n.Tuple)
			p.succ[n.Tuple] = append(p.succ[n.Tuple], n)
		case *relay.Function:
			// Nested functions are opaque to partitioning.
		}
	}
	walk(body)
}

// tryMerge unifies the regions of producer a and consumer c unless the
// merged region would be non-convex: a path from region(a) through a host
// node back into region(c) would force the host to both consume and feed the
// lifted function, i.e. a cycle.
func (p *oraclePartitioner) tryMerge(a, c *relay.Call) {
	ga, gc := p.group[a].find(), p.group[c].find()
	if ga == gc {
		return
	}
	merged := map[*relay.Call]bool{}
	for _, n := range p.order {
		g := p.group[n].find()
		if g == ga || g == gc {
			merged[n] = true
		}
	}
	if p.pathThroughOutside(merged) {
		p.decisions = append(p.decisions, mergeDecision{a, c, false})
		return
	}
	p.decisions = append(p.decisions, mergeDecision{a, c, true})
	ga.parent = gc
}

// tupleTransparent reports whether a Tuple node merely routes values between
// in-region members (a concatenate input tuple), in which case it counts as
// inside the region for convexity and output analysis.
func (p *oraclePartitioner) tupleTransparent(t *relay.Tuple, region map[*relay.Call]bool) bool {
	succs := p.succ[t]
	if len(succs) == 0 {
		return false
	}
	for _, s := range succs {
		c, ok := s.(*relay.Call)
		if !ok || !region[c] {
			return false
		}
	}
	return true
}

// pathThroughOutside reports whether some node outside the candidate region
// lies on a path region → outside → region.
func (p *oraclePartitioner) pathThroughOutside(region map[*relay.Call]bool) bool {
	// BFS from every outside successor of the region; if we can re-enter the
	// region, merging is illegal.
	inRegion := func(e relay.Expr) bool {
		if c, ok := e.(*relay.Call); ok {
			return region[c]
		}
		if t, ok := e.(*relay.Tuple); ok {
			return p.tupleTransparent(t, region)
		}
		return false
	}
	var frontier []relay.Expr
	seen := map[relay.Expr]bool{}
	for n := range region {
		for _, s := range p.succ[n] {
			if !inRegion(s) && !seen[s] {
				seen[s] = true
				frontier = append(frontier, s)
			}
		}
	}
	for len(frontier) > 0 {
		e := frontier[0]
		frontier = frontier[1:]
		for _, s := range p.succ[e] {
			if inRegion(s) {
				return true
			}
			if !seen[s] {
				seen[s] = true
				frontier = append(frontier, s)
			}
		}
	}
	return false
}

// oracleRegion captures one liftable region.
type oracleRegion struct {
	members []*relay.Call // topo order
	outputs []*relay.Call // members with consumers outside the region
}

func (p *oraclePartitioner) collectRegions(bodyRoot relay.Expr) []*oracleRegion {
	byGroup := map[*fuseGroup]*oracleRegion{}
	var regions []*oracleRegion
	for _, c := range p.order {
		if !p.isSup[c] {
			continue
		}
		g := p.group[c].find()
		r := byGroup[g]
		if r == nil {
			r = &oracleRegion{}
			byGroup[g] = r
			regions = append(regions, r)
		}
		r.members = append(r.members, c)
	}
	for _, r := range regions {
		in := map[*relay.Call]bool{}
		for _, m := range r.members {
			in[m] = true
		}
		for _, m := range r.members {
			external := m == bodyRoot
			for _, s := range p.succ[m] {
				if c, ok := s.(*relay.Call); ok && in[c] {
					continue
				}
				if t, ok := s.(*relay.Tuple); ok && p.tupleTransparent(t, in) {
					continue
				}
				external = true
			}
			if external {
				r.outputs = append(r.outputs, m)
			}
		}
	}
	// Filter small regions.
	if p.opts.MinRegionSize > 1 {
		var kept []*oracleRegion
		for _, r := range regions {
			if len(r.members) >= p.opts.MinRegionSize {
				kept = append(kept, r)
			}
		}
		regions = kept
	}
	return regions
}

// partitionBody rewrites the body, lifting each region into an external
// function registered in mod.
func (p *oraclePartitioner) partitionBody(body relay.Expr, mod *relay.Module) (relay.Expr, error) {
	regions := p.collectRegions(body)
	// Map from output member -> (region, output index).
	type outRef struct {
		r   *oracleRegion
		idx int
	}
	outOf := map[*relay.Call]outRef{}
	for _, r := range regions {
		for i, o := range r.outputs {
			outOf[o] = outRef{r, i}
		}
	}

	memo := map[relay.Expr]relay.Expr{}
	regionCall := map[*oracleRegion]relay.Expr{}
	lifting := map[*oracleRegion]bool{}
	var rerr error

	var transform func(e relay.Expr) relay.Expr
	buildRegion := func(r *oracleRegion) relay.Expr {
		if c, ok := regionCall[r]; ok {
			return c
		}
		if lifting[r] {
			rerr = errRegionCycle
			return nil
		}
		lifting[r] = true
		call, err := p.liftRegion(r, mod, transform)
		if err != nil {
			rerr = err
			return nil
		}
		regionCall[r] = call
		return call
	}
	transform = func(e relay.Expr) relay.Expr {
		if e == nil || rerr != nil {
			return e
		}
		if r, ok := memo[e]; ok {
			return r
		}
		var out relay.Expr
		switch n := e.(type) {
		case *relay.Call:
			if ref, isOut := outOf[n]; isOut {
				rc := buildRegion(ref.r)
				if rerr != nil {
					return e
				}
				if len(ref.r.outputs) == 1 {
					out = rc
				} else {
					out = relay.NewTupleGetItem(rc, ref.idx)
				}
				break
			}
			newArgs := make([]relay.Expr, len(n.Args))
			for i, a := range n.Args {
				newArgs[i] = transform(a)
			}
			newFn := n.Fn
			if n.Fn != nil {
				newFn = transform(n.Fn)
			}
			out = &relay.Call{Op: n.Op, Fn: newFn, Args: newArgs, Attrs: n.Attrs}
		case *relay.Tuple:
			fields := make([]relay.Expr, len(n.Fields))
			for i, f := range n.Fields {
				fields[i] = transform(f)
			}
			out = relay.NewTuple(fields)
		case *relay.TupleGetItem:
			out = relay.NewTupleGetItem(transform(n.Tuple), n.Index)
		default:
			out = e
		}
		memo[e] = out
		return out
	}
	res := transform(body)
	return res, rerr
}

// liftRegion clones a region into fn(params){...} with the Compiler and
// global_symbol attributes, registers it in the module, and returns the call
// expression feeding it the transformed external inputs.
func (p *oraclePartitioner) liftRegion(r *oracleRegion, mod *relay.Module, transform func(relay.Expr) relay.Expr) (relay.Expr, error) {
	in := map[*relay.Call]bool{}
	for _, m := range r.members {
		in[m] = true
	}
	var params []*relay.Var
	var outerArgs []relay.Expr
	paramFor := map[relay.Expr]*relay.Var{}
	cloneMemo := map[relay.Expr]relay.Expr{}

	var cloneExpr func(e relay.Expr) relay.Expr
	cloneExpr = func(e relay.Expr) relay.Expr {
		if r, ok := cloneMemo[e]; ok {
			return r
		}
		var out relay.Expr
		switch n := e.(type) {
		case *relay.Constant:
			out = n // constants are baked into the external module
		case *relay.Call:
			if in[n] {
				newArgs := make([]relay.Expr, len(n.Args))
				for i, a := range n.Args {
					newArgs[i] = cloneExpr(a)
				}
				out = &relay.Call{Op: n.Op, Args: newArgs, Attrs: n.Attrs}
				break
			}
			out = oracleCloneBoundary(n, &params, &outerArgs, paramFor, transform)
		case *relay.Tuple:
			// Tuples feeding concatenate-style members are cloned inline.
			fields := make([]relay.Expr, len(n.Fields))
			for i, f := range n.Fields {
				fields[i] = cloneExpr(f)
			}
			out = relay.NewTuple(fields)
		default:
			out = oracleCloneBoundary(e, &params, &outerArgs, paramFor, transform)
		}
		cloneMemo[e] = out
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

// oracleCloneBoundary turns an external input into a region parameter (one per
// distinct source expression) and records the transformed outer argument.
func oracleCloneBoundary(e relay.Expr, params *[]*relay.Var, outerArgs *[]relay.Expr,
	paramFor map[relay.Expr]*relay.Var, transform func(relay.Expr) relay.Expr) relay.Expr {
	if v, ok := paramFor[e]; ok {
		return v
	}
	v := relay.NewVar(fmt.Sprintf("nirp%d", len(*params)), e.CheckedType())
	paramFor[e] = v
	*params = append(*params, v)
	*outerArgs = append(*outerArgs, transform(e))
	return v
}
