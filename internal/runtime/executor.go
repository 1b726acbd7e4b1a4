package runtime

import (
	"fmt"

	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// value is either a *tensor.Tensor or a []value (tuple).
type value interface{}

// executor evaluates a built library's main function. Numerics run through
// the TOPI kernels (host) and the Neuron runtime (external regions);
// simulated cost accrues to prof when non-nil.
type executor struct {
	lib  *Lib
	prof *soc.Profile
	memo map[relay.Expr]value
	env  map[*relay.Var]value
}

func newExecutor(lib *Lib, prof *soc.Profile) *executor {
	return &executor{lib: lib, prof: prof, memo: map[relay.Expr]value{}, env: map[*relay.Var]value{}}
}

func (ex *executor) eval(e relay.Expr) (value, error) {
	if v, ok := ex.memo[e]; ok {
		return v, nil
	}
	v, err := ex.evalUncached(e)
	if err != nil {
		return nil, err
	}
	ex.memo[e] = v
	return v, nil
}

func (ex *executor) evalUncached(e relay.Expr) (value, error) {
	switch n := e.(type) {
	case *relay.Var:
		v, ok := ex.env[n]
		if !ok {
			return nil, fmt.Errorf("runtime: unbound variable %q (missing set_input?)", n.Name)
		}
		return v, nil
	case *relay.Constant:
		return n.Value, nil
	case *relay.Tuple:
		fields := make([]value, len(n.Fields))
		for i, f := range n.Fields {
			v, err := ex.eval(f)
			if err != nil {
				return nil, err
			}
			fields[i] = v
		}
		return fields, nil
	case *relay.TupleGetItem:
		tv, err := ex.eval(n.Tuple)
		if err != nil {
			return nil, err
		}
		fields, ok := tv.([]value)
		if !ok {
			return nil, fmt.Errorf("runtime: projection on non-tuple value")
		}
		if n.Index < 0 || n.Index >= len(fields) {
			return nil, fmt.Errorf("runtime: projection index %d out of range", n.Index)
		}
		return fields[n.Index], nil
	case *relay.Call:
		return ex.evalCall(n)
	case *relay.Function:
		return n, nil // function value: consumed by evalCall
	}
	return nil, fmt.Errorf("runtime: cannot evaluate %T", e)
}

func (ex *executor) evalCall(c *relay.Call) (value, error) {
	if c.Op != nil {
		return ex.evalOpCall(c, true)
	}
	fnVal, err := ex.eval(c.Fn)
	if err != nil {
		return nil, err
	}
	fn, ok := fnVal.(*relay.Function)
	if !ok {
		return nil, fmt.Errorf("runtime: call of non-function value")
	}
	args := make([]value, len(c.Args))
	for i, a := range c.Args {
		if args[i], err = ex.eval(a); err != nil {
			return nil, err
		}
	}
	switch {
	case fn.Attr(relay.FnAttrCompiler) == "nir":
		return ex.evalExternal(fn, args)
	case fn.Attr(relay.FnAttrPrimitive) != "":
		return ex.evalPrimitive(fn, args)
	default:
		return ex.evalInline(fn, args, true)
	}
}

// evalOpCall executes one operator through TOPI; charge selects whether the
// TVM engine cost is accrued (primitive bodies charge once for the group).
func (ex *executor) evalOpCall(c *relay.Call, charge bool) (value, error) {
	flat := make([]*tensor.Tensor, 0, len(c.Args))
	for _, a := range c.Args {
		v, err := ex.eval(a)
		if err != nil {
			return nil, err
		}
		switch vv := v.(type) {
		case *tensor.Tensor:
			flat = append(flat, vv)
		case []value:
			for _, f := range vv {
				ft, ok := f.(*tensor.Tensor)
				if !ok {
					return nil, fmt.Errorf("runtime: nested tuple argument to %s", c.Op.Name)
				}
				flat = append(flat, ft)
			}
		default:
			return nil, fmt.Errorf("runtime: bad argument value %T for %s", v, c.Op.Name)
		}
	}
	outTy, ok := c.CheckedType().(*relay.TensorType)
	if !ok {
		return nil, fmt.Errorf("runtime: op %s has non-tensor checked type %v", c.Op.Name, c.CheckedType())
	}
	res, err := topi.Run(c.Op.Name, flat, c.Attrs, outTy)
	if err != nil {
		return nil, err
	}
	if charge && ex.prof != nil {
		cpu := ex.lib.SoC.CPU
		w := soc.WorkOf(c)
		ex.prof.AddOpNamed(soc.KindCPU, cpu.OpTime(w, soc.TVMEff(w)), c.Op.Name)
	}
	return res, nil
}

// evalPrimitive executes a fused kernel: the numerics of every member op,
// but a single launch charge for the whole group — fusion's payoff.
func (ex *executor) evalPrimitive(fn *relay.Function, args []value) (value, error) {
	res, err := ex.evalInline(fn, args, false)
	if err != nil {
		return nil, err
	}
	if ex.prof != nil {
		w := soc.FunctionWork(fn)
		cpu := ex.lib.SoC.CPU
		name := "(op)"
		if ex.prof.EventsEnabled() {
			name = primLabel(fn) // the walk only pays off when events record it
		}
		ex.prof.AddOpNamed(soc.KindCPU, cpu.OpTime(w, soc.TVMEff(w)), name)
	}
	return res, nil
}

// evalInline evaluates a function body with parameters bound, in a child
// scope sharing the library but not the memo table (bindings differ).
func (ex *executor) evalInline(fn *relay.Function, args []value, charge bool) (value, error) {
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("runtime: call arity %d, function wants %d", len(args), len(fn.Params))
	}
	child := newExecutor(ex.lib, nil)
	if charge {
		child.prof = ex.prof
	}
	for i, p := range fn.Params {
		child.env[p] = args[i]
	}
	return child.eval(fn.Body)
}

// evalExternal dispatches a partitioned region to its compiled NeuroPilot
// artifact.
func (ex *executor) evalExternal(fn *relay.Function, args []value) (value, error) {
	sym := fn.Attr(relay.FnAttrGlobalSymbol)
	cm, ok := ex.lib.External[sym]
	if !ok {
		return nil, fmt.Errorf("runtime: external module %q not compiled (was Build run with UseNIR?)", sym)
	}
	ins := make([]*tensor.Tensor, len(args))
	for i, a := range args {
		t, ok := a.(*tensor.Tensor)
		if !ok {
			return nil, fmt.Errorf("runtime: external region %q argument %d is not a tensor", sym, i)
		}
		ins[i] = t
	}
	outs, err := cm.Execute(ins)
	if err != nil {
		return nil, fmt.Errorf("runtime: external region %q: %w", sym, err)
	}
	if ex.prof != nil {
		ex.prof.AddSubgraphNamed(sym)
		cm.Estimate(ex.prof)
	}
	if len(outs) == 1 {
		return outs[0], nil
	}
	vals := make([]value, len(outs))
	for i, o := range outs {
		vals[i] = o
	}
	return vals, nil
}
