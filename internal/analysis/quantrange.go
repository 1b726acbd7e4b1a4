package analysis

import (
	"fmt"
	"math"

	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// Quantization range analysis: a forward dataflow pass that attaches a
// real-domain interval to every expression of a (typically QNN) module,
// then audits each quantization boundary against the interval actually
// flowing into it. passes/quantize.go picks scales and zero points from
// calibration maxima; this analysis is the independent check that the
// choices are sound — the same role PlanSafety plays for the memory planner.
//
// Checks:
//
//	quant-bad-scale       (error) scale <= 0 or non-finite: the affine map
//	                      is degenerate, every value collapses
//	quant-bad-zero-point  (error) zero point outside the storage dtype's
//	                      domain: real zero becomes unrepresentable
//	quant-acc-overflow    (error) a qnn.conv2d/qnn.dense reduction can
//	                      overflow the int32 accumulator at worst case
//	quant-saturate        (warning) the incoming value range exceeds the
//	                      representable range: values will clip
//	quant-low-coverage    (warning) the incoming range uses under 1/8 of
//	                      the representable range: most of the quantized
//	                      domain is wasted and the effective resolution
//	                      drops below 5 bits
//
// Errors mean the quantized domain is lost; warnings mean precision is.

// Interval is a closed real interval fact. Exact marks intervals derived
// from actual values (constants, quantized-domain clamps) as opposed to
// worst-case bounds (conv/dense accumulation); the saturation audit only
// trusts exact intervals, so a deliberately loose bound never produces a
// false alarm. Infinities mark unknown endpoints.
type Interval struct {
	Lo, Hi float64
	Exact  bool
}

func unbounded() Interval { return Interval{math.Inf(-1), math.Inf(1), false} }

// Bounded reports whether both endpoints are finite.
func (iv Interval) Bounded() bool {
	return !math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) && !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi)
}

// Hull returns the smallest interval containing both.
func (iv Interval) Hull(o Interval) Interval {
	return Interval{math.Min(iv.Lo, o.Lo), math.Max(iv.Hi, o.Hi), iv.Exact && o.Exact}
}

// Intersect clamps iv to o (clipping: values outside o land on its edges).
func (iv Interval) Intersect(o Interval) Interval {
	out := Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi), iv.Exact && o.Exact}
	if out.Lo > out.Hi { // disjoint: everything clips to the nearer edge
		if iv.Lo > o.Hi {
			return Interval{o.Hi, o.Hi, out.Exact}
		}
		return Interval{o.Lo, o.Lo, out.Exact}
	}
	return out
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	return Interval{iv.Lo + o.Lo, iv.Hi + o.Hi, iv.Exact && o.Exact}
}

// Mul returns the interval product.
func (iv Interval) Mul(o Interval) Interval {
	c := [4]float64{iv.Lo * o.Lo, iv.Lo * o.Hi, iv.Hi * o.Lo, iv.Hi * o.Hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return Interval{lo, hi, iv.Exact && o.Exact}
}

// AbsMax returns the largest magnitude in the interval.
func (iv Interval) AbsMax() float64 { return math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi)) }

func (iv Interval) String() string { return fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi) }

// qdomain returns the quantized-integer domain of a storage dtype.
func qdomain(dtype string) (qmin, qmax float64, ok bool) {
	switch dtype {
	case "int8":
		return -128, 127, true
	case "", "uint8": // the QNN flow's default storage type
		return 0, 255, true
	}
	return 0, 0, false
}

// representable returns the real-domain interval an affine quantization
// (scale, zeroPoint, dtype) can express. The interval is exact: quantized
// values are confined to it by construction.
func representable(scale float64, zp int, dtype string) (Interval, bool) {
	qmin, qmax, ok := qdomain(dtype)
	if !ok || !(scale > 0) || math.IsInf(scale, 0) {
		return unbounded(), false
	}
	return Interval{(qmin - float64(zp)) * scale, (qmax - float64(zp)) * scale, true}, true
}

// QuantRanges runs the range analysis over every function of the module and
// returns the audit. Modules with no quantized boundaries produce no
// diagnostics. The module should be type-inferred (CheckedType set), which
// every frontend and pass-pipeline output is; untyped expressions simply
// propagate unknown ranges.
func QuantRanges(m *relay.Module) *verify.Result {
	res := &verify.Result{}
	// Region functions appear both as module definitions and inline in main
	// (the same objects); audit each reachable call once.
	audited := map[relay.Expr]bool{}
	m.Functions(func(name string, fn *relay.Function) {
		if fn != nil {
			analyzeQuantFn(name, fn, audited, res)
		}
	})
	return res
}

// analyzeQuantFn computes every expression's interval in one forward pass
// over one function body and audits it.
func analyzeQuantFn(fnName string, fn *relay.Function, audited map[relay.Expr]bool, res *verify.Result) {
	// Collect the expression DAG in post order: PostOrderVisit visits a
	// call's callee and arguments, a tuple's fields and a function's body
	// before the node itself, so every dependency's interval is final by the
	// time the loop below reaches its consumer.
	var exprs []relay.Expr
	idx := map[relay.Expr]int{}
	relay.PostOrderVisit(fn, func(e relay.Expr) {
		idx[e] = len(exprs)
		exprs = append(exprs, e)
	})

	// Dependency facts in argument order: a call of a function value gets
	// the callee as its final dep, after the arguments.
	facts := make([]Interval, len(exprs))
	var deps []Interval
	for i, e := range exprs {
		deps = deps[:0]
		switch n := e.(type) {
		case *relay.Call:
			for _, a := range n.Args {
				deps = append(deps, facts[idx[a]])
			}
			if n.Fn != nil {
				deps = append(deps, facts[idx[n.Fn]])
			}
		case *relay.Tuple:
			for _, f := range n.Fields {
				deps = append(deps, facts[idx[f]])
			}
		case *relay.TupleGetItem:
			deps = append(deps, facts[idx[n.Tuple]])
		case *relay.Function:
			deps = append(deps, facts[idx[n.Body]])
		}
		facts[i] = transferInterval(e, deps)
	}

	// Audit pass: with the final facts in hand, check every quantization
	// boundary once.
	for _, e := range exprs {
		c, ok := e.(*relay.Call)
		if !ok || c.Op == nil || audited[e] {
			continue
		}
		audited[e] = true
		argFact := func(j int) Interval {
			if j < len(c.Args) {
				return facts[idx[c.Args[j]]]
			}
			return unbounded()
		}
		auditQuantCall(fnName, c, argFact, res)
	}
}

// initialInterval is the boundary fact of leaf expressions.
func initialInterval(e relay.Expr) Interval {
	switch n := e.(type) {
	case *relay.Constant:
		if n.Value != nil {
			return constInterval(n.Value)
		}
	case *relay.Var:
		// A quantized input's type bounds its real values exactly.
		if tt := asTensorType(n.CheckedType(), n.TypeAnnotation); tt != nil && tt.Quant != nil {
			if r, ok := representable(tt.Quant.Scale, int(tt.Quant.ZeroPoint), tt.DType.String()); ok {
				return r
			}
		}
	}
	return unbounded()
}

func asTensorType(tys ...relay.Type) *relay.TensorType {
	for _, ty := range tys {
		if tt, ok := ty.(*relay.TensorType); ok {
			return tt
		}
	}
	return nil
}

// constInterval scans a constant tensor's real-domain extrema. Large
// constants are sampled with a stride: a sampled hull can only shrink, so
// the audit may miss a marginal saturation on a huge weight but never
// raises a false one, and the analysis stays linear.
func constInterval(t *tensor.Tensor) Interval {
	n := t.Elems()
	if n == 0 {
		return Interval{0, 0, true}
	}
	stride := 1
	const maxScan = 1 << 14
	if n > maxScan {
		stride = n / maxScan
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i += stride {
		v := t.GetF(i)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return Interval{lo, hi, true}
}

// transferInterval is the forward transfer function: one expression's
// output interval from its dependencies' intervals (aligned with argument
// positions).
func transferInterval(e relay.Expr, deps []Interval) Interval {
	dep := func(i int) Interval {
		if i >= 0 && i < len(deps) {
			return deps[i]
		}
		return unbounded()
	}
	switch n := e.(type) {
	case *relay.Constant, *relay.Var:
		return initialInterval(e)
	case *relay.Tuple:
		if len(n.Fields) == 0 {
			return unbounded()
		}
		out := dep(0)
		for i := 1; i < len(n.Fields); i++ {
			out = out.Hull(dep(i))
		}
		return out
	case *relay.TupleGetItem:
		return dep(0) // conservative: the hull of all fields
	case *relay.Function:
		return dep(0) // the body's interval
	case *relay.Call:
		return callInterval(n, dep)
	}
	return unbounded()
}

func callInterval(c *relay.Call, dep func(int) Interval) Interval {
	if c.Op == nil {
		// A call of a function value (fused primitive, partitioned region):
		// its final dep is the callee, whose fact is its body's.
		return dep(len(c.Args))
	}
	in := dep(0)
	switch c.Op.Name {
	case "qnn.quantize", "qnn.requantize":
		scale := c.Attrs.Float("output_scale", 1)
		zp := c.Attrs.Int("output_zero_point", 0)
		r, ok := representable(scale, zp, c.Attrs.Str("out_dtype", "uint8"))
		if !ok {
			return unbounded()
		}
		if in.Bounded() && in.Exact {
			return in.Intersect(r)
		}
		return r // whatever came in, the output is confined to r
	case "qnn.dequantize":
		scale := c.Attrs.Float("input_scale", 1)
		zp := c.Attrs.Int("input_zero_point", 0)
		dt := "uint8"
		if len(c.Args) > 0 {
			if tt := asTensorType(typeOf(c.Args[0])); tt != nil {
				dt = tt.DType.String()
			}
		}
		if r, ok := representable(scale, zp, dt); ok {
			if in.Bounded() && in.Exact {
				return in.Intersect(r)
			}
			return r
		}
		return in
	case "qnn.conv2d", "qnn.dense", "nn.conv2d", "nn.dense":
		return matmulInterval(c, dep)
	case "nn.bias_add", "add":
		return in.Add(dep(1))
	case "subtract":
		b := dep(1)
		return in.Add(Interval{-b.Hi, -b.Lo, b.Exact})
	case "multiply":
		return in.Mul(dep(1))
	case "maximum":
		b := dep(1)
		return Interval{math.Max(in.Lo, b.Lo), math.Max(in.Hi, b.Hi), in.Exact && b.Exact}
	case "minimum":
		b := dep(1)
		return Interval{math.Min(in.Lo, b.Lo), math.Min(in.Hi, b.Hi), in.Exact && b.Exact}
	case "nn.relu":
		return Interval{math.Max(0, in.Lo), math.Max(0, in.Hi), in.Exact}
	case "clip":
		return in.Intersect(Interval{c.Attrs.Float("a_min", math.Inf(-1)), c.Attrs.Float("a_max", math.Inf(1)), true})
	case "nn.softmax", "sigmoid":
		return Interval{0, 1, true}
	case "tanh":
		return Interval{-1, 1, true}
	case "exp":
		return Interval{math.Exp(in.Lo), math.Exp(in.Hi), in.Exact}
	case "sqrt":
		return Interval{math.Sqrt(math.Max(0, in.Lo)), math.Sqrt(math.Max(0, in.Hi)), in.Exact}
	case "negative":
		return Interval{-in.Hi, -in.Lo, in.Exact}
	case "concatenate":
		// The single argument is a tuple; its fact is already the hull.
		return in
	case "nn.pad":
		return in.Hull(Interval{0, 0, true})
	case "nn.max_pool2d", "nn.avg_pool2d", "nn.global_avg_pool2d", "mean",
		"reshape", "nn.batch_flatten", "squeeze", "transpose", "nn.dropout",
		"layout_transform", "copy", "cast":
		// Range-preserving (pooling and mean stay within the input hull).
		return in
	}
	return unbounded()
}

// typeOf returns an expression's checked type (nil-safe).
func typeOf(e relay.Expr) relay.Type {
	if e == nil {
		return nil
	}
	return e.CheckedType()
}

// reductionSize returns K, the number of multiply-accumulates feeding one
// output element of a conv/dense, from the weight tensor's type.
func reductionSize(c *relay.Call) int {
	if len(c.Args) < 2 {
		return 0
	}
	var tt *relay.TensorType
	if v, ok := c.Args[1].(*relay.Var); ok {
		tt = asTensorType(v.CheckedType(), v.TypeAnnotation)
	} else {
		tt = asTensorType(typeOf(c.Args[1]))
	}
	if tt == nil {
		return 0
	}
	switch c.Op.Name {
	case "qnn.conv2d", "nn.conv2d":
		if len(tt.Shape) == 4 {
			return tt.Shape[1] * tt.Shape[2] * tt.Shape[3]
		}
	case "qnn.dense", "nn.dense":
		if len(tt.Shape) == 2 {
			return tt.Shape[1]
		}
	}
	return 0
}

// matmulInterval bounds a conv/dense output: |out| <= K * max|in| * max|w|.
// The bound is deliberately loose (it ignores cancellation), so the fact is
// marked inexact and the saturation audit will not act on it.
func matmulInterval(c *relay.Call, dep func(int) Interval) Interval {
	k := reductionSize(c)
	in, w := dep(0), dep(1)
	if k <= 0 || !in.Bounded() || !w.Bounded() {
		return unbounded()
	}
	bound := float64(k) * in.AbsMax() * w.AbsMax()
	return Interval{-bound, bound, false}
}

// auditQuantCall emits the diagnostics for one call given its argument
// intervals.
func auditQuantCall(fnName string, c *relay.Call, argFact func(int) Interval, res *verify.Result) {
	where := "@" + fnName + ": " + verify.Summarize(c)
	checkAffine := func(scale float64, zp int, dtype, role string) bool {
		ok := true
		if !(scale > 0) || math.IsNaN(scale) || math.IsInf(scale, 0) {
			res.Errorf("quant-bad-scale", where, "%s scale %g is not a positive finite number; the affine map is degenerate", role, scale)
			ok = false
		}
		if qmin, qmax, dok := qdomain(dtype); dok {
			if float64(zp) < qmin || float64(zp) > qmax {
				res.Errorf("quant-bad-zero-point", where, "%s zero point %d is outside the %s domain [%g, %g]; real zero becomes unrepresentable",
					role, zp, dtype, qmin, qmax)
				ok = false
			}
		}
		return ok
	}

	switch c.Op.Name {
	case "qnn.quantize", "qnn.requantize":
		scale := c.Attrs.Float("output_scale", 1)
		zp := c.Attrs.Int("output_zero_point", 0)
		dtype := c.Attrs.Str("out_dtype", "uint8")
		okIn := true
		if c.Op.Name == "qnn.requantize" {
			okIn = checkAffine(c.Attrs.Float("input_scale", 1), c.Attrs.Int("input_zero_point", 0), "uint8", "input")
		}
		if !checkAffine(scale, zp, dtype, "output") || !okIn {
			return
		}
		r, _ := representable(scale, zp, dtype)
		in := argFact(0)
		// Only exact incoming ranges are audited: conservative bounds
		// (conv/dense worst cases) would saturate almost by definition.
		if !in.Bounded() || !in.Exact {
			return
		}
		// A sliver of slack absorbs calibration round-off (the asymmetric
		// uint8 grid clips half an ulp at the positive edge by design);
		// real saturation exceeds it by construction.
		if slack := 1e-9 + 1e-2*r.AbsMax(); in.Lo < r.Lo-slack || in.Hi > r.Hi+slack {
			res.Warnf("quant-saturate", where, "incoming range %v exceeds the representable range %v; values will clip", in, r)
			return
		}
		if inW, rW := in.Hi-in.Lo, r.Hi-r.Lo; inW > 0 && rW > 0 && inW < rW/8 {
			res.Warnf("quant-low-coverage", where, "incoming range %v uses %.1f%% of the representable range %v; "+
				"the scale wastes most of the %s domain", in, 100*inW/rW, r, dtype)
		}
	case "qnn.dequantize":
		checkAffine(c.Attrs.Float("input_scale", 1), c.Attrs.Int("input_zero_point", 0), "uint8", "input")
	case "qnn.conv2d", "qnn.dense":
		// Worst-case int32 accumulation: K products of 8-bit magnitudes.
		if k := reductionSize(c); k > 0 {
			if worst := float64(k) * 255 * 255; worst > float64(math.MaxInt32) {
				res.Errorf("quant-acc-overflow", where, "reduction of %d 8-bit products can reach %.3g, overflowing the int32 accumulator", k, worst)
			}
		}
	}
}
