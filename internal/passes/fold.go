package passes

import (
	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// FoldConstant evaluates every operator call whose inputs are all constants
// at compile time, replacing the call with the resulting constant tensor.
// After SimplifyInference this collapses the weight-side arithmetic of folded
// batch norms, so the runtime graph contains only data-dependent work.
func FoldConstant() Pass {
	return Pass{
		Name:        "FoldConstant",
		MinOptLevel: 2,
		Run: func(m *relay.Module, ctx *Context) (*relay.Module, error) {
			var ferr error
			out := rewriteMainOnly(m, func(e relay.Expr) relay.Expr {
				if ferr != nil {
					return e
				}
				folded, err := tryFold(e)
				if err != nil {
					ferr = err
					return e
				}
				return folded
			})
			return out, ferr
		},
	}
}

func tryFold(e relay.Expr) (relay.Expr, error) {
	call, ok := e.(*relay.Call)
	if !ok || call.Op == nil {
		return e, nil
	}
	if !topi.Has(call.Op.Name) {
		return e, nil
	}
	// Gather constant arguments; bail if any input is dynamic.
	var flat []*tensor.Tensor
	argTypes := make([]relay.Type, len(call.Args))
	for i, a := range call.Args {
		switch arg := a.(type) {
		case *relay.Constant:
			flat = append(flat, arg.Value)
			argTypes[i] = arg.CheckedType()
		case *relay.Tuple:
			fields := make([]relay.Type, len(arg.Fields))
			for j, f := range arg.Fields {
				c, ok := f.(*relay.Constant)
				if !ok {
					return e, nil
				}
				flat = append(flat, c.Value)
				fields[j] = c.CheckedType()
			}
			argTypes[i] = &relay.TupleType{Fields: fields}
		default:
			return e, nil
		}
	}
	outTy, err := call.Op.Infer(argTypes, call.Attrs)
	if err != nil {
		return nil, err
	}
	tt, ok := outTy.(*relay.TensorType)
	if !ok {
		return e, nil // tuple-producing op: not foldable into one Constant
	}
	res, err := topi.Run(call.Op.Name, flat, call.Attrs, tt)
	if err != nil {
		return nil, err
	}
	return relay.Const(res), nil
}
