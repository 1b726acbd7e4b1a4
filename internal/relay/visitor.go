package relay

import (
	"slices"
	"sync/atomic"
)

// This file provides the AST traversal infrastructure the paper's Listing 1
// is built on: a memoized post-order DFS visitor (TVM's ExprVisitor) and a
// bottom-up rewriter (TVM's ExprMutator).
//
// Visited-sets and rewrite memos normally live on the nodes themselves
// (exprBase epoch stamps) rather than in interface-keyed maps: traversals
// run once per pass per build, and map hashing plus incremental growth
// dominated compile-path profiles. Each traversal draws a fresh epoch, so
// no clearing is needed between runs. A node holds exactly one stamp, so
// only the outermost traversal may use it: nested traversals (a visitor
// callback walking a sub-function) and concurrent traversals detect each
// other through traversalDepth and fall back to a private map, which keeps
// them correct at the old cost.
var (
	traversalEpoch atomic.Uint64
	traversalDepth atomic.Int32
)

// seenFunc returns the visited-check for one traversal: it reports (and
// records) whether a node was already visited. Outermost traversals use the
// node epoch stamp; nested or concurrent ones get a map.
func seenFunc(outermost bool, ep uint64) func(Expr) bool {
	if outermost {
		return func(e Expr) bool { return e.stamp(ep) }
	}
	visited := map[Expr]bool{}
	return func(e Expr) bool {
		if visited[e] {
			return true
		}
		visited[e] = true
		return false
	}
}

// PostOrderVisit calls fn exactly once per reachable node, children before
// parents. Shared sub-expressions (the IR is a DAG) are visited once.
func PostOrderVisit(e Expr, fn func(Expr)) {
	outermost := traversalDepth.Add(1) == 1
	defer traversalDepth.Add(-1)
	seen := seenFunc(outermost, traversalEpoch.Add(1))
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil || seen(e) {
			return
		}
		switch n := e.(type) {
		case *Var, *Constant:
		case *Call:
			if n.Fn != nil {
				walk(n.Fn)
			}
			for _, a := range n.Args {
				walk(a)
			}
		case *Tuple:
			for _, f := range n.Fields {
				walk(f)
			}
		case *TupleGetItem:
			walk(n.Tuple)
		case *Function:
			for _, p := range n.Params {
				walk(p)
			}
			walk(n.Body)
		}
		fn(e)
	}
	walk(e)
}

// Rewrite rebuilds the expression bottom-up, calling fn on each node after
// its children have been rewritten. fn may return the node unchanged.
// Memoization preserves sharing: a sub-expression reachable through two paths
// is rewritten once and both parents reference the same result. Checked types
// are invalidated on rebuilt nodes; rerun InferType afterwards.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	outermost := traversalDepth.Add(1) == 1
	defer traversalDepth.Add(-1)
	var memoGet func(Expr) (Expr, bool)
	var memoSet func(Expr, Expr)
	if outermost {
		ep := traversalEpoch.Add(1)
		memoGet = func(e Expr) (Expr, bool) { return e.memoGet(ep) }
		memoSet = func(e, r Expr) { e.memoSet(ep, r) }
	} else {
		memo := map[Expr]Expr{}
		memoGet = func(e Expr) (Expr, bool) { r, ok := memo[e]; return r, ok }
		memoSet = func(e, r Expr) { memo[e] = r }
	}
	var walk func(Expr) Expr
	walk = func(e Expr) Expr {
		if e == nil {
			return nil
		}
		if r, ok := memoGet(e); ok {
			return r
		}
		var rebuilt Expr
		switch n := e.(type) {
		case *Var, *Constant:
			rebuilt = n
		case *Call:
			newFn := n.Fn
			if n.Fn != nil {
				newFn = walk(n.Fn)
			}
			newArgs := rewriteList(n.Args, walk)
			if newArgs != nil || newFn != n.Fn {
				if newArgs == nil {
					newArgs = slices.Clone(n.Args)
				}
				rebuilt = &Call{Op: n.Op, Fn: newFn, Args: newArgs, Attrs: n.Attrs}
			} else {
				rebuilt = n
			}
		case *Tuple:
			if newFields := rewriteList(n.Fields, walk); newFields != nil {
				rebuilt = &Tuple{Fields: newFields}
			} else {
				rebuilt = n
			}
		case *TupleGetItem:
			nt := walk(n.Tuple)
			if nt != n.Tuple {
				rebuilt = &TupleGetItem{Tuple: nt, Index: n.Index}
			} else {
				rebuilt = n
			}
		case *Function:
			nb := walk(n.Body)
			if nb != n.Body {
				nf := &Function{Params: n.Params, Body: nb, FnAttrs: n.FnAttrs}
				rebuilt = nf
			} else {
				rebuilt = n
			}
		default:
			rebuilt = e
		}
		out := fn(rebuilt)
		memoSet(e, out)
		return out
	}
	return walk(e)
}

// rewriteList walks every expression of xs and returns the rewritten list,
// or nil when no element changed: the copy is made at the first change.
func rewriteList(xs []Expr, walk func(Expr) Expr) []Expr {
	var out []Expr
	for i, x := range xs {
		r := walk(x)
		if out == nil && r != x {
			out = make([]Expr, len(xs))
			copy(out, xs[:i])
		}
		if out != nil {
			out[i] = r
		}
	}
	return out
}

// FreeVars returns the variables used by e that are not bound by any
// Function parameter list inside e, in first-use order. The BYOC partitioner
// uses this to compute the parameter list of a lifted region.
func FreeVars(e Expr) []*Var {
	bound := map[*Var]bool{}
	vseen := map[*Var]bool{}
	var free []*Var
	outermost := traversalDepth.Add(1) == 1
	defer traversalDepth.Add(-1)
	seen := seenFunc(outermost, traversalEpoch.Add(1))
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		// Vars may legitimately be revisited (no early-out for them); for
		// all other nodes, memoize.
		if _, isVar := e.(*Var); !isVar {
			if seen(e) {
				return
			}
		}
		switch n := e.(type) {
		case *Var:
			if !bound[n] && !vseen[n] {
				vseen[n] = true
				free = append(free, n)
			}
		case *Constant:
		case *Call:
			if n.Fn != nil {
				walk(n.Fn)
			}
			for _, a := range n.Args {
				walk(a)
			}
		case *Tuple:
			for _, f := range n.Fields {
				walk(f)
			}
		case *TupleGetItem:
			walk(n.Tuple)
		case *Function:
			for _, p := range n.Params {
				bound[p] = true
			}
			walk(n.Body)
		}
	}
	walk(e)
	return free
}

// CountNodes returns the number of distinct reachable AST nodes; used by
// tests and by the bench harness to report graph sizes.
func CountNodes(e Expr) int {
	n := 0
	PostOrderVisit(e, func(Expr) { n++ })
	return n
}

// CountOps returns the number of operator-call nodes whose name matches any
// of the given names; with no names it counts all op calls.
func CountOps(e Expr, names ...string) int {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	n := 0
	PostOrderVisit(e, func(x Expr) {
		c, ok := x.(*Call)
		if !ok || c.Op == nil {
			return
		}
		if len(want) == 0 || want[c.Op.Name] {
			n++
		}
	})
	return n
}
