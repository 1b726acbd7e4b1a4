// Package frontend is the lowering core the five format packages share.
// Each package under it decodes its own bytes, maps its own operator names
// and reads its own attribute spellings and defaults; everything after that
// is done once, here:
//
//   - layout: OIHW→OHWI weight permutation and NCHW→NHWC shapes and axes,
//     for the NCHW frameworks (PyTorch, ONNX, Darknet) lowered onto the
//     stack's NHWC layout;
//   - padding: TensorFlow's SAME rule and the convolution/pool output size,
//     for the TF-family formats (TFLite, Keras);
//   - Graph: the named-value importer ONNX and TorchScript lower through,
//     with its arity-checked builders;
//   - Finish: the single-or-tuple body, type inference and IR verification
//     every imported module passes before it leaves a frontend.
//
// Nothing here knows which format called it: builders take the relay.Attrs
// the decoder built, because the attrs are hashed into the artifact key.
package frontend

import (
	"fmt"
	"strconv"

	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// OIHWToOHWI permutes float32 convolution weights into the stack's OHWI
// layout.
func OIHWToOHWI(w *tensor.Tensor) *tensor.Tensor {
	o, i, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	out := tensor.New(tensor.Float32, tensor.Shape{o, kh, kw, i})
	src, dst := w.F32(), out.F32()
	for oo := 0; oo < o; oo++ {
		for ii := 0; ii < i; ii++ {
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					dst[((oo*kh+y)*kw+x)*i+ii] = src[((oo*i+ii)*kh+y)*kw+x]
				}
			}
		}
	}
	return out
}

// NCHWShape converts a rank-4 NCHW shape to NHWC; rank-2 shapes pass
// through.
func NCHWShape(s []int) ([]int, error) {
	switch len(s) {
	case 4:
		return []int{s[0], s[2], s[3], s[1]}, nil
	case 2:
		return append([]int(nil), s...), nil
	}
	return nil, fmt.Errorf("rank-%d shape %v unsupported", len(s), s)
}

// NCHWAxis maps an NCHW dim of a rank-rank value to its NHWC axis. Negative
// dims count from the end; values that are not rank 4 keep their axes.
func NCHWAxis(dim, rank int) (int, error) {
	if dim < 0 {
		dim += rank
	}
	if dim < 0 || dim >= rank {
		return 0, fmt.Errorf("dim %d out of range for rank %d", dim, rank)
	}
	if rank != 4 {
		return dim, nil
	}
	return [4]int{0, 3, 1, 2}[dim], nil
}

// SamePad is TensorFlow's SAME padding, [top, left, bottom, right]: the
// output is ceil(in/stride) and an odd total pads one more at the end.
func SamePad(inH, inW, kh, kw, sh, sw int) []int {
	pad := func(in, k, s int) (int, int) {
		total := k - s
		if in%s != 0 {
			total = k - in%s
		}
		if total < 0 {
			total = 0
		}
		return total / 2, total - total/2
	}
	t, b := pad(inH, kh, sh)
	l, r := pad(inW, kw, sw)
	return []int{t, l, b, r}
}

// OutDim is a convolution or pool's output extent: ceil(in/stride) under
// SAME padding, else the VALID window count over in (callers fold explicit
// padding into in).
func OutDim(in, k, stride int, same bool) int {
	if same {
		return (in + stride - 1) / stride
	}
	return (in-k)/stride + 1
}

// Finish closes an import: the body is the single output or a tuple of all
// of them, and the module must type-check and pass IR verification. A nil
// output was never produced; names[i], when given, labels outputs[i] in
// that error. Errors carry the format's prefix.
func Finish(format string, vars []*relay.Var, outputs []relay.Expr, names []string) (*relay.Module, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("%s: graph has no outputs", format)
	}
	for i, o := range outputs {
		if o == nil {
			label := strconv.Itoa(i)
			if i < len(names) {
				label = strconv.Quote(names[i])
			}
			return nil, fmt.Errorf("%s: unknown output %s", format, label)
		}
	}
	body := outputs[0]
	if len(outputs) > 1 {
		body = relay.NewTuple(outputs)
	}
	m := relay.NewModule(relay.NewFunc(vars, body))
	if err := relay.InferModule(m); err != nil {
		return nil, fmt.Errorf("%s: imported module ill-typed: %w", format, err)
	}
	if err := verify.ModuleErr(m, verify.Options{}); err != nil {
		return nil, fmt.Errorf("%s: imported module failed IR verification: %w", format, err)
	}
	return m, nil
}

// Graph is the named-value importer for NCHW graph formats: values are
// addressed by name, parameters are materialized as constants on first use,
// and every value is type-checked as it is set. Inputs become NHWC vars and
// convolution weights OHWI constants.
type Graph struct {
	values map[string]relay.Expr
	params map[string]*tensor.Tensor
	vars   []*relay.Var
}

// NewGraph starts an import over the model's named parameters.
func NewGraph(params map[string]*tensor.Tensor) *Graph {
	return &Graph{values: map[string]relay.Expr{}, params: params}
}

// Input declares a float32 graph input by its NCHW shape.
func (g *Graph) Input(name string, nchw []int) error {
	shape, err := NCHWShape(nchw)
	if err != nil {
		return fmt.Errorf("input %q: %v", name, err)
	}
	v := relay.NewVar(name, relay.TType(tensor.Float32, shape...))
	g.values[name] = v
	g.vars = append(g.vars, v)
	return nil
}

// Value resolves a name to the value set under it or its parameter.
func (g *Graph) Value(name string) (relay.Expr, error) {
	if e, ok := g.values[name]; ok {
		return e, nil
	}
	if p, ok := g.params[name]; ok {
		c := relay.Const(p)
		g.values[name] = c
		return c, nil
	}
	return nil, fmt.Errorf("unknown value %q", name)
}

// Param fetches a raw parameter tensor, bypassing the value map.
func (g *Graph) Param(name string) (*tensor.Tensor, error) {
	p, ok := g.params[name]
	if !ok {
		return nil, fmt.Errorf("missing parameter %q", name)
	}
	return p, nil
}

// Set type-checks e and binds it to name.
func (g *Graph) Set(name string, e relay.Expr) error {
	if _, err := relay.InferTypes(e); err != nil {
		return err
	}
	g.values[name] = e
	return nil
}

// Operand resolves a one-input node's input and its tensor type.
func (g *Graph) Operand(in []string) (relay.Expr, *relay.TensorType, error) {
	if len(in) != 1 {
		return nil, nil, fmt.Errorf("expects 1 input, got %d", len(in))
	}
	x, err := g.Value(in[0])
	if err != nil {
		return nil, nil, err
	}
	tt, ok := x.CheckedType().(*relay.TensorType)
	if !ok {
		return nil, nil, fmt.Errorf("input %q is not a tensor", in[0])
	}
	return x, tt, nil
}

// Unary sets out to op applied to the node's one input.
func (g *Graph) Unary(in []string, out string, op *relay.Op, attrs relay.Attrs) error {
	x, _, err := g.Operand(in)
	if err != nil {
		return err
	}
	return g.Set(out, relay.NewCall(op, []relay.Expr{x}, attrs))
}

// Binary sets out to op applied to the node's two inputs.
func (g *Graph) Binary(in []string, out string, op *relay.Op) error {
	if len(in) != 2 {
		return fmt.Errorf("expects 2 inputs, got %d", len(in))
	}
	a, err := g.Value(in[0])
	if err != nil {
		return err
	}
	b, err := g.Value(in[1])
	if err != nil {
		return err
	}
	return g.Set(out, relay.NewCall(op, []relay.Expr{a, b}, nil))
}

// Conv sets out to nn.conv2d over inputs (x, OIHW weight[, bias]), the
// weight permuted to OHWI and the bias added with nn.bias_add.
func (g *Graph) Conv(in []string, out string, attrs relay.Attrs) error {
	x, w, err := g.weighted(in, "convolution")
	if err != nil {
		return err
	}
	if len(w.Shape) != 4 || w.DType != tensor.Float32 {
		return fmt.Errorf("conv weight is %s %s, want float32 OIHW", w.DType, w.Shape)
	}
	conv := relay.NewCall(relay.OpConv2D, []relay.Expr{x, relay.Const(OIHWToOHWI(w))}, attrs)
	return g.withBias(in, out, conv)
}

// Dense sets out to nn.dense over inputs (x, weight[, bias]).
func (g *Graph) Dense(in []string, out string) error {
	x, w, err := g.weighted(in, "dense")
	if err != nil {
		return err
	}
	return g.withBias(in, out, relay.NewCall(relay.OpDense, []relay.Expr{x, relay.Const(w)}, nil))
}

func (g *Graph) weighted(in []string, what string) (relay.Expr, *tensor.Tensor, error) {
	if len(in) != 2 && len(in) != 3 {
		return nil, nil, fmt.Errorf("%s expects x, weight[, bias], got %d inputs", what, len(in))
	}
	x, err := g.Value(in[0])
	if err != nil {
		return nil, nil, err
	}
	w, err := g.Param(in[1])
	return x, w, err
}

func (g *Graph) withBias(in []string, out string, e relay.Expr) error {
	if len(in) == 3 {
		b, err := g.Param(in[2])
		if err != nil {
			return err
		}
		e = relay.NewCall(relay.OpBiasAdd, []relay.Expr{e, relay.Const(b)}, nil)
	}
	return g.Set(out, e)
}

// BatchNorm sets out to nn.batch_norm over inputs (x, gamma, beta, mean,
// variance).
func (g *Graph) BatchNorm(in []string, out string, attrs relay.Attrs) error {
	if len(in) != 5 {
		return fmt.Errorf("batch norm expects x + 4 params, got %d inputs", len(in))
	}
	x, err := g.Value(in[0])
	if err != nil {
		return err
	}
	args := []relay.Expr{x}
	for _, pn := range in[1:] {
		p, err := g.Param(pn)
		if err != nil {
			return err
		}
		args = append(args, relay.Const(p))
	}
	return g.Set(out, relay.NewCall(relay.OpBatchNorm, args, attrs))
}

// Concat sets out to the concatenation of the inputs along NCHW dim.
func (g *Graph) Concat(in []string, out string, dim int) error {
	if len(in) == 0 {
		return fmt.Errorf("concat of no inputs")
	}
	fields := make([]relay.Expr, len(in))
	rank := 0
	for i, name := range in {
		e, err := g.Value(name)
		if err != nil {
			return err
		}
		fields[i] = e
		if tt, ok := e.CheckedType().(*relay.TensorType); ok {
			rank = len(tt.Shape)
		}
	}
	axis, err := NCHWAxis(dim, rank)
	if err != nil {
		return err
	}
	return g.Set(out, relay.NewCall(relay.OpConcatenate,
		[]relay.Expr{relay.NewTuple(fields)}, relay.Attrs{"axis": axis}))
}

// Flatten sets out to nn.batch_flatten of the one input.
func (g *Graph) Flatten(in []string, out string) error {
	x, tt, err := g.Operand(in)
	if err != nil {
		return err
	}
	if len(tt.Shape) == 4 && (tt.Shape[1] != 1 || tt.Shape[2] != 1) {
		// Flattening a spatial NCHW tensor produces a channel-major order
		// this NHWC importer cannot reproduce without a transpose; the
		// models in the zoo flatten only after global pooling.
		return fmt.Errorf("flatten of non-1x1 spatial tensor %s is layout-ambiguous; "+
			"pool to 1x1 first", tt.Shape)
	}
	return g.Set(out, relay.NewCall(relay.OpBatchFlatten, []relay.Expr{x}, nil))
}

// Finish closes the import with the named outputs (see Finish).
func (g *Graph) Finish(format string, outputs []string) (*relay.Module, error) {
	if len(g.vars) == 0 {
		return nil, fmt.Errorf("%s: graph has no runtime inputs", format)
	}
	exprs := make([]relay.Expr, len(outputs))
	for i, o := range outputs {
		exprs[i] = g.values[o]
	}
	return Finish(format, g.vars, exprs, outputs)
}
