package torchscript

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/tensor"
)

// Tracer is the authoring side: the stand-in for defining an nn.Module and
// running torch.jit.trace over it. The model zoo builds the DeePixBiS
// anti-spoofing network through this API; parameters are synthesized
// deterministically and the result serializes into the trace JSON +
// state-dict blob the importer consumes.
type Tracer struct {
	graph  Graph
	params StateDict
	rng    *tensor.RNG
	shapes map[string][]int // NCHW shapes of every value
	nextID int
	err    error
}

// NewTracer starts a trace.
func NewTracer(seed uint64) *Tracer {
	return &Tracer{
		graph:  Graph{Producer: "torch.jit.trace"},
		params: StateDict{},
		rng:    tensor.NewRNG(seed),
		shapes: map[string][]int{},
	}
}

// Err returns the first building error.
func (t *Tracer) Err() error { return t.err }

func (t *Tracer) fail(format string, args ...interface{}) string {
	if t.err == nil {
		t.err = fmt.Errorf("torch trace: "+format, args...)
	}
	return ""
}

func (t *Tracer) fresh(prefix string) string {
	t.nextID++
	return fmt.Sprintf("%s.%d", prefix, t.nextID)
}

// Input declares the graph input (NCHW).
func (t *Tracer) Input(n, c, h, w int) string {
	name := t.fresh("input")
	t.graph.Inputs = append(t.graph.Inputs, ValueInfo{Name: name, Shape: []int{n, c, h, w}, DType: "float32"})
	t.shapes[name] = []int{n, c, h, w}
	return name
}

// Output marks graph outputs.
func (t *Tracer) Output(names ...string) { t.graph.Outputs = append(t.graph.Outputs, names...) }

func (t *Tracer) node(op, out string, inputs []string, attrs map[string]interface{}, outShape []int) string {
	t.graph.Nodes = append(t.graph.Nodes, Node{Op: op, Inputs: inputs, Output: out, Attrs: attrs})
	t.shapes[out] = outShape
	return out
}

func (t *Tracer) newParam(name string, shape tensor.Shape, fanIn, fanOut int) {
	p := tensor.New(tensor.Float32, shape)
	p.FillGlorot(t.rng, fanIn, fanOut)
	t.params[name] = p
}

// Conv2D adds aten::_convolution with bias; weights are OIHW as in PyTorch.
func (t *Tracer) Conv2D(x string, outC, kernel, stride, pad, groups int) string {
	s, ok := t.shapes[x]
	if !ok || len(s) != 4 {
		return t.fail("conv input %q has shape %v", x, s)
	}
	inC := s[1]
	if inC%groups != 0 || outC%groups != 0 {
		return t.fail("conv groups %d incompatible with channels %d->%d", groups, inC, outC)
	}
	wName := t.fresh("weight")
	bName := t.fresh("bias")
	t.newParam(wName, tensor.Shape{outC, inC / groups, kernel, kernel}, kernel*kernel*inC/groups, outC)
	t.params[bName] = tensor.New(tensor.Float32, tensor.Shape{outC})
	oh := frontend.OutDim(s[2]+2*pad, kernel, stride, false)
	ow := frontend.OutDim(s[3]+2*pad, kernel, stride, false)
	out := t.fresh("conv")
	return t.node("aten::_convolution", out, []string{x, wName, bName}, map[string]interface{}{
		"stride":   []interface{}{float64(stride), float64(stride)},
		"padding":  []interface{}{float64(pad), float64(pad)},
		"dilation": []interface{}{float64(1), float64(1)},
		"groups":   float64(groups),
	}, []int{s[0], outC, oh, ow})
}

func (t *Tracer) unary(op, prefix, x string, attrs map[string]interface{}) string {
	s, ok := t.shapes[x]
	if !ok {
		return t.fail("%s input %q unknown", op, x)
	}
	out := t.fresh(prefix)
	return t.node(op, out, []string{x}, attrs, append([]int(nil), s...))
}

// ReLU adds aten::relu.
func (t *Tracer) ReLU(x string) string { return t.unary("aten::relu", "relu", x, nil) }

// LeakyReLU adds aten::leaky_relu.
func (t *Tracer) LeakyReLU(x string, slope float64) string {
	return t.unary("aten::leaky_relu", "leaky", x, map[string]interface{}{"negative_slope": slope})
}

// Sigmoid adds aten::sigmoid.
func (t *Tracer) Sigmoid(x string) string { return t.unary("aten::sigmoid", "sig", x, nil) }

// Tanh adds aten::tanh.
func (t *Tracer) Tanh(x string) string { return t.unary("aten::tanh", "tanh", x, nil) }

// HardTanh adds aten::hardtanh (relu6 when 0..6).
func (t *Tracer) HardTanh(x string, min, max float64) string {
	return t.unary("aten::hardtanh", "htanh", x, map[string]interface{}{"min_val": min, "max_val": max})
}

// MaxPool2D adds aten::max_pool2d.
func (t *Tracer) MaxPool2D(x string, kernel, stride int) string {
	s := t.shapes[x]
	if len(s) != 4 {
		return t.fail("max_pool input %q shape %v", x, s)
	}
	out := t.fresh("pool")
	oh := frontend.OutDim(s[2], kernel, stride, false)
	ow := frontend.OutDim(s[3], kernel, stride, false)
	return t.node("aten::max_pool2d", out, []string{x}, map[string]interface{}{
		"kernel_size": []interface{}{float64(kernel), float64(kernel)},
		"stride":      []interface{}{float64(stride), float64(stride)},
	}, []int{s[0], s[1], oh, ow})
}

// AdaptiveAvgPool2D1x1 adds aten::adaptive_avg_pool2d with output 1x1.
func (t *Tracer) AdaptiveAvgPool2D1x1(x string) string {
	s := t.shapes[x]
	if len(s) != 4 {
		return t.fail("adaptive pool input %q shape %v", x, s)
	}
	out := t.fresh("gap")
	return t.node("aten::adaptive_avg_pool2d", out, []string{x}, map[string]interface{}{
		"output_size": []interface{}{float64(1), float64(1)},
	}, []int{s[0], s[1], 1, 1})
}

// BatchNorm adds aten::batch_norm with synthesized statistics.
func (t *Tracer) BatchNorm(x string) string {
	s := t.shapes[x]
	if len(s) != 4 {
		return t.fail("batch_norm input %q shape %v", x, s)
	}
	c := s[1]
	mk := func(prefix string, lo, hi float64) string {
		name := t.fresh(prefix)
		p := tensor.New(tensor.Float32, tensor.Shape{c})
		p.FillUniform(t.rng, lo, hi)
		t.params[name] = p
		return name
	}
	g := mk("bn.gamma", 0.8, 1.2)
	b := mk("bn.beta", -0.1, 0.1)
	m := mk("bn.mean", -0.2, 0.2)
	v := mk("bn.var", 0.5, 1.5)
	out := t.fresh("bn")
	return t.node("aten::batch_norm", out, []string{x, g, b, m, v},
		map[string]interface{}{"eps": 1e-5}, append([]int(nil), s...))
}

// Add adds aten::add (same-shape residual).
func (t *Tracer) Add(a, b string) string {
	sa, sb := t.shapes[a], t.shapes[b]
	if len(sa) == 0 || len(sb) == 0 {
		return t.fail("add inputs %q/%q unknown", a, b)
	}
	out := t.fresh("add")
	return t.node("aten::add", out, []string{a, b}, nil, append([]int(nil), sa...))
}

// Cat adds aten::cat along dim (NCHW dim).
func (t *Tracer) Cat(dim int, xs ...string) string {
	if len(xs) == 0 {
		return t.fail("cat of nothing")
	}
	base := append([]int(nil), t.shapes[xs[0]]...)
	for _, x := range xs[1:] {
		s := t.shapes[x]
		if len(s) != len(base) {
			return t.fail("cat rank mismatch")
		}
		base[dim] += s[dim]
	}
	out := t.fresh("cat")
	return t.node("aten::cat", out, xs, map[string]interface{}{"dim": float64(dim)}, base)
}

// Mean adds aten::mean over spatial dims (NCHW [2,3]).
func (t *Tracer) MeanSpatial(x string) string {
	s := t.shapes[x]
	if len(s) != 4 {
		return t.fail("mean input %q shape %v", x, s)
	}
	out := t.fresh("mean")
	return t.node("aten::mean", out, []string{x}, map[string]interface{}{
		"dim": []interface{}{float64(2), float64(3)},
	}, []int{s[0], s[1]})
}

// Flatten adds aten::flatten(start_dim=1). Only valid when the spatial area
// is 1x1 (layout-independent); the importer rejects other uses.
func (t *Tracer) Flatten(x string) string {
	s := t.shapes[x]
	n := 1
	for _, d := range s[1:] {
		n *= d
	}
	out := t.fresh("flat")
	return t.node("aten::flatten", out, []string{x}, map[string]interface{}{"start_dim": float64(1)}, []int{s[0], n})
}

// Linear adds aten::linear over a 2-D value.
func (t *Tracer) Linear(x string, units int) string {
	s := t.shapes[x]
	if len(s) != 2 {
		return t.fail("linear input %q shape %v", x, s)
	}
	wName := t.fresh("weight")
	bName := t.fresh("bias")
	t.newParam(wName, tensor.Shape{units, s[1]}, s[1], units)
	t.params[bName] = tensor.New(tensor.Float32, tensor.Shape{units})
	out := t.fresh("linear")
	return t.node("aten::linear", out, []string{x, wName, bName}, nil, []int{s[0], units})
}

// Softmax adds aten::softmax over dim.
func (t *Tracer) Softmax(x string, dim int) string {
	return t.unary("aten::softmax", "softmax", x, map[string]interface{}{"dim": float64(dim)})
}

// Dropout adds aten::dropout.
func (t *Tracer) Dropout(x string, p float64) string {
	return t.unary("aten::dropout", "drop", x, map[string]interface{}{"p": p})
}

// UpsampleNearest2x adds aten::upsample_nearest2d with scale 2.
func (t *Tracer) UpsampleNearest2x(x string) string {
	s := t.shapes[x]
	if len(s) != 4 {
		return t.fail("upsample input %q shape %v", x, s)
	}
	out := t.fresh("up")
	return t.node("aten::upsample_nearest2d", out, []string{x},
		map[string]interface{}{"scale_factor": float64(2)}, []int{s[0], s[1], s[2] * 2, s[3] * 2})
}

// Shape returns the traced NCHW shape of a value.
func (t *Tracer) Shape(x string) []int { return append([]int(nil), t.shapes[x]...) }

// Trace finalizes the graph (torch.jit.trace output).
func (t *Tracer) Trace() (*Graph, StateDict, error) {
	if t.err != nil {
		return nil, nil, t.err
	}
	if len(t.graph.Outputs) == 0 {
		return nil, nil, fmt.Errorf("torch trace: no outputs marked")
	}
	return &t.graph, t.params, nil
}
