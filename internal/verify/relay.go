package verify

import (
	"fmt"

	"repro/internal/relay"
)

// Options configures Module verification.
type Options struct {
	// ExternalOps maps a Compiler attribute value (e.g. "nir") to the
	// predicate deciding whether that external codegen accepts a call.
	// When provided, every operator call inside a matching partitioned
	// region is checked against it: partitioning must never place an op the
	// converter has no handler for inside a region.
	ExternalOps map[string]func(*relay.Call) bool
}

// Module verifies relay well-formedness: every variable bound, checked types
// present and consistent with the op-registry signatures, call arity, fused
// Primitive functions free of nested partitions, BYOC regions properly
// attributed and registered, quantized types carrying complete quantization
// parameters, and no dangling or dead module bindings.
func Module(m *relay.Module, opts Options) *Result {
	v := &moduleVerifier{
		res:        &Result{},
		m:          m,
		opts:       opts,
		referenced: map[*relay.Function]bool{},
		visited:    map[relay.Expr]bool{},
	}
	v.run()
	return v.res
}

// ModuleErr is Module returning an error (nil when every invariant holds).
func ModuleErr(m *relay.Module, opts Options) error {
	return Module(m, opts).Err()
}

type moduleVerifier struct {
	res        *Result
	m          *relay.Module
	opts       Options
	referenced map[*relay.Function]bool
	visited    map[relay.Expr]bool
}

// walkCtx tracks the path-sensitive state of the verification walk.
type walkCtx struct {
	fnName string
	// compiler is the Compiler attribute of the innermost enclosing
	// partitioned region ("" outside regions).
	compiler string
	// primitive reports whether the walk is inside a fused Primitive body.
	primitive bool
}

func (v *moduleVerifier) run() {
	if v.m.Main() == nil {
		v.res.Errorf("no-main", "", "module has no %q entry function", relay.MainFunc)
		return
	}
	v.m.Functions(func(name string, fn *relay.Function) {
		if name != relay.MainFunc {
			v.checkRegionDef(name, fn)
		}
		ctx := walkCtx{fnName: name, compiler: fn.Attr(relay.FnAttrCompiler)}
		v.checkFunction(name, fn)
		v.walk(fn.Body, ctx)
	})
	// Dead bindings: every non-main definition must be reachable from main
	// (partitioned regions are referenced through Call.Fn in the rewritten
	// main body).
	v.m.Functions(func(name string, fn *relay.Function) {
		if name == relay.MainFunc || v.referenced[fn] {
			return
		}
		v.res.Errorf("dead-binding", "@"+name,
			"function is never referenced from @%s", relay.MainFunc)
	})
}

// checkRegionDef audits the attributes of a module-level definition other
// than main: only partitioned regions are registered, and their
// global_symbol must agree with the binding name.
func (v *moduleVerifier) checkRegionDef(name string, fn *relay.Function) {
	comp := fn.Attr(relay.FnAttrCompiler)
	if comp == "" {
		v.res.Errorf("region-attrs", "@"+name,
			"module-level function carries no %s attribute (only partitioned regions are registered)",
			relay.FnAttrCompiler)
		return
	}
	if sym := fn.Attr(relay.FnAttrGlobalSymbol); sym != name {
		v.res.Errorf("region-attrs", "@"+name,
			"%s=%q does not match the module binding name", relay.FnAttrGlobalSymbol, sym)
	}
}

// checkFunction audits one function's binding structure: every free variable
// of the body must be a parameter.
func (v *moduleVerifier) checkFunction(name string, fn *relay.Function) {
	for _, free := range relay.FreeVars(fn) {
		v.res.Errorf("unbound-var", exprWhere(name, free),
			"variable %%%s is used but bound by no enclosing parameter list", free.Name)
	}
	for _, p := range fn.Params {
		if p.TypeAnnotation == nil {
			v.res.Errorf("var-annotation", exprWhere(name, p),
				"parameter %%%s has no type annotation", p.Name)
		}
	}
}

func (v *moduleVerifier) walk(e relay.Expr, ctx walkCtx) {
	if e == nil || v.visited[e] {
		return
	}
	v.visited[e] = true
	switch n := e.(type) {
	case *relay.Var:
		v.checkVar(n, ctx)
	case *relay.Constant:
		v.checkConstant(n, ctx)
	case *relay.Call:
		for _, a := range n.Args {
			v.walk(a, ctx)
		}
		v.checkCall(n, ctx) // callee walked inside (needs region context)
	case *relay.Tuple:
		for _, f := range n.Fields {
			v.walk(f, ctx)
		}
		v.checkTyped(n, ctx)
	case *relay.TupleGetItem:
		v.walk(n.Tuple, ctx)
		v.checkTupleGet(n, ctx)
	case *relay.Function:
		v.enterNestedFunc(n, ctx)
	}
}

// enterNestedFunc checks a Function literal reached through the expression
// tree (a Primitive kernel or a partitioned region callee) and walks its
// body under the updated context.
func (v *moduleVerifier) enterNestedFunc(fn *relay.Function, ctx walkCtx) {
	comp := fn.Attr(relay.FnAttrCompiler)
	prim := fn.Attr(relay.FnAttrPrimitive)
	if ctx.primitive {
		v.res.Errorf("primitive-nested", exprWhere(ctx.fnName, fn),
			"fused Primitive function contains a nested function (fusion must not cross partition or kernel boundaries)")
	}
	if ctx.compiler != "" {
		if comp != "" {
			v.res.Errorf("nested-partition", exprWhere(ctx.fnName, fn),
				"partitioned region for %q contains a nested %s=%q region (regions must be convex, never nested)",
				ctx.compiler, relay.FnAttrCompiler, comp)
		} else {
			v.res.Errorf("region-nested-fn", exprWhere(ctx.fnName, fn),
				"partitioned region for %q contains a nested function; the converter only accepts flat op graphs",
				ctx.compiler)
		}
	}
	v.checkFunction(ctx.fnName, fn)
	sub := ctx
	if comp != "" {
		sub.compiler = comp
	}
	if prim != "" {
		sub.primitive = true
	}
	v.walk(fn.Body, sub)
}

func (v *moduleVerifier) checkVar(n *relay.Var, ctx walkCtx) {
	if n.TypeAnnotation != nil {
		v.checkType(n.TypeAnnotation, "var-annotation", ctx.fnName, n)
		if ct := n.CheckedType(); ct != nil && !ct.Same(n.TypeAnnotation) {
			v.res.Errorf("type-mismatch", exprWhere(ctx.fnName, n),
				"checked type %s disagrees with annotation %s (stale inference after a rewrite?)",
				ct, n.TypeAnnotation)
		}
	}
	v.checkTyped(n, ctx)
}

func (v *moduleVerifier) checkConstant(n *relay.Constant, ctx walkCtx) {
	if n.Value == nil {
		v.res.Errorf("const-value", exprWhere(ctx.fnName, n), "constant carries no tensor value")
		return
	}
	if tt, ok := n.CheckedType().(*relay.TensorType); ok {
		if !tt.Shape.Equal(n.Value.Shape) || tt.DType != n.Value.DType {
			v.res.Errorf("const-type", exprWhere(ctx.fnName, n),
				"checked type %s disagrees with the stored tensor (%s %s)",
				tt, n.Value.DType, n.Value.Shape)
		}
	}
	v.checkTyped(n, ctx)
}

// checkCall verifies one call node: a well-defined callee, arity and
// argument types per the registry or callee signature, and a checked result
// type consistent with re-running the operator's type-inference function.
func (v *moduleVerifier) checkCall(n *relay.Call, ctx walkCtx) {
	switch {
	case n.Op != nil && n.Fn != nil:
		v.res.Errorf("ambiguous-callee", exprWhere(ctx.fnName, n),
			"call has both an operator and a function callee")
	case n.Op == nil && n.Fn == nil:
		v.res.Errorf("no-callee", exprWhere(ctx.fnName, n), "call has neither operator nor function callee")
	case n.Op != nil:
		v.checkOpCall(n, ctx)
	default:
		v.checkFnCall(n, ctx)
	}
	v.checkTyped(n, ctx)
}

func (v *moduleVerifier) checkOpCall(n *relay.Call, ctx walkCtx) {
	if _, registered := relay.LookupOp(n.Op.Name); !registered {
		v.res.Errorf("unregistered-op", exprWhere(ctx.fnName, n),
			"operator %q is not in the relay op registry", n.Op.Name)
		return
	}
	if ctx.compiler != "" {
		if sup := v.opts.ExternalOps[ctx.compiler]; sup != nil && !sup(n) {
			v.res.Errorf("region-unsupported-op", exprWhere(ctx.fnName, n),
				"op %s is inside a %s=%q region but the external codegen does not support it",
				n.Op.Name, relay.FnAttrCompiler, ctx.compiler)
		}
	}
	args := make([]relay.Type, len(n.Args))
	for i, a := range n.Args {
		if args[i] = a.CheckedType(); args[i] == nil {
			return // diagnosed as untyped at the argument node
		}
	}
	got, err := n.Op.Infer(args, n.Attrs)
	if err != nil {
		v.res.Errorf("op-signature", exprWhere(ctx.fnName, n),
			"call does not satisfy the registry signature: %v", err)
		return
	}
	if ct := n.CheckedType(); ct != nil && !got.Same(ct) {
		v.res.Errorf("type-mismatch", exprWhere(ctx.fnName, n),
			"checked type %s disagrees with registry inference %s (stale after a rewrite?)", ct, got)
	}
}

func (v *moduleVerifier) checkFnCall(n *relay.Call, ctx walkCtx) {
	fn, ok := n.Fn.(*relay.Function)
	if !ok {
		v.res.Errorf("no-callee", exprWhere(ctx.fnName, n),
			"function callee is a %T, not a Function literal", n.Fn)
		return
	}
	comp := fn.Attr(relay.FnAttrCompiler)
	prim := fn.Attr(relay.FnAttrPrimitive)
	switch {
	case comp != "":
		sym := fn.Attr(relay.FnAttrGlobalSymbol)
		reg, found := v.m.Get(sym)
		if !found || reg != fn {
			v.res.Errorf("unregistered-region", exprWhere(ctx.fnName, n),
				"call targets a %s=%q region with %s=%q that is not the module definition of that name",
				relay.FnAttrCompiler, comp, relay.FnAttrGlobalSymbol, sym)
		} else {
			v.referenced[fn] = true
		}
	case prim == "":
		v.res.Errorf("anonymous-fn-call", exprWhere(ctx.fnName, n),
			"callee function carries neither %s nor %s attributes",
			relay.FnAttrCompiler, relay.FnAttrPrimitive)
	}
	if len(fn.Params) != len(n.Args) {
		v.res.Errorf("call-arity", exprWhere(ctx.fnName, n),
			"call passes %d arguments, callee declares %d parameters", len(n.Args), len(fn.Params))
	} else {
		for i, a := range n.Args {
			at, pt := a.CheckedType(), fn.Params[i].TypeAnnotation
			if at != nil && pt != nil && !at.Same(pt) {
				v.res.Errorf("call-arg-type", exprWhere(ctx.fnName, n),
					"argument %d has type %s, callee parameter %%%s wants %s",
					i, at, fn.Params[i].Name, pt)
			}
		}
	}
	v.enterNestedFunc(fn, ctx)
}

func (v *moduleVerifier) checkTupleGet(n *relay.TupleGetItem, ctx walkCtx) {
	if tt, ok := n.Tuple.CheckedType().(*relay.TupleType); ok {
		if n.Index < 0 || n.Index >= len(tt.Fields) {
			v.res.Errorf("tuple-index", exprWhere(ctx.fnName, n),
				"projection index %d out of range for %d-field tuple", n.Index, len(tt.Fields))
		}
	}
	v.checkTyped(n, ctx)
}

// checkTyped enforces that inference ran (every node carries a checked type)
// and that quantized tensor types carry complete quantization parameters —
// the relay-side half of the paper's §3.3 invariant.
//
// Diagnostic locations are rendered only when a check actually fires: the
// verifier visits every node after every pass, and eagerly formatting a
// where-string per visit dominated compile-path profiles.
func (v *moduleVerifier) checkTyped(e relay.Expr, ctx walkCtx) {
	t := e.CheckedType()
	if t == nil {
		v.res.Errorf("untyped", exprWhere(ctx.fnName, e),
			"expression has no checked type (InferType did not run after the last rewrite)")
		return
	}
	v.checkType(t, "quant-params", ctx.fnName, e)
}

// checkType recursively audits a type: quantized dtypes must carry valid
// quantization parameters. The diagnostic location is derived from (fnName,
// at) lazily, on error only.
func (v *moduleVerifier) checkType(t relay.Type, check, fnName string, at relay.Expr) {
	switch tt := t.(type) {
	case *relay.TensorType:
		if tt.DType.IsQuantized() {
			if tt.Quant == nil {
				v.res.Errorf(check, exprWhere(fnName, at),
					"type %s is quantized but carries no scale/zero-point (QNN params must survive onto every tensor)", tt)
			} else if tt.Quant.Scale <= 0 {
				v.res.Errorf(check, exprWhere(fnName, at),
					"type %s has non-positive quantization scale %g", tt, tt.Quant.Scale)
			}
		}
	case *relay.TupleType:
		for _, f := range tt.Fields {
			v.checkType(f, check, fnName, at)
		}
	case *relay.FuncType:
		for _, p := range tt.Params {
			v.checkType(p, check, fnName, at)
		}
		if tt.Ret != nil {
			v.checkType(tt.Ret, check, fnName, at)
		}
	}
}

// exprWhere renders a one-line context for a diagnostic: the enclosing
// function plus a compact description of the node.
func exprWhere(fnName string, e relay.Expr) string {
	return "@" + fnName + ": " + summarize(e)
}

// Summarize renders a compact one-line description of an expression for
// diagnostic Where fields; internal/analysis shares it so `npc -analyze`
// findings read like `-verify` ones.
func Summarize(e relay.Expr) string { return summarize(e) }

func summarize(e relay.Expr) string {
	switch n := e.(type) {
	case *relay.Var:
		return "%" + n.Name
	case *relay.Constant:
		if n.Value == nil {
			return "const(<nil>)"
		}
		return fmt.Sprintf("const(%s%s)", n.Value.DType, n.Value.Shape)
	case *relay.Call:
		if n.Op != nil {
			return fmt.Sprintf("%s(%d args)", n.Op.Name, len(n.Args))
		}
		if fn, ok := n.Fn.(*relay.Function); ok {
			if sym := fn.Attr(relay.FnAttrGlobalSymbol); sym != "" {
				return fmt.Sprintf("call @%s", sym)
			}
			if fn.Attr(relay.FnAttrPrimitive) != "" {
				return "call primitive-fn"
			}
		}
		return "call fn"
	case *relay.Tuple:
		return fmt.Sprintf("tuple(%d fields)", len(n.Fields))
	case *relay.TupleGetItem:
		return fmt.Sprintf("%s.%d", summarize(n.Tuple), n.Index)
	case *relay.Function:
		if sym := n.Attr(relay.FnAttrGlobalSymbol); sym != "" {
			return "fn @" + sym
		}
		return fmt.Sprintf("fn(%d params)", len(n.Params))
	}
	return fmt.Sprintf("%T", e)
}
