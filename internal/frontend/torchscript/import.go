package torchscript

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/relay"
)

// FromTorch imports a traced graph + state dict into a relay module —
// relay.frontend.from_pytorch of Listing 2. The returned module is NHWC: the
// data input expects NHWC tensors and convolution weights have been permuted
// OIHW→OHWI at import time.
func FromTorch(g *Graph, params StateDict) (*relay.Module, error) {
	fg := frontend.NewGraph(params)
	for _, in := range g.Inputs {
		if in.DType != "" && in.DType != "float32" {
			return nil, fmt.Errorf("torchscript: input %q dtype %s unsupported", in.Name, in.DType)
		}
		if err := fg.Input(in.Name, in.Shape); err != nil {
			return nil, fmt.Errorf("torchscript: %w", err)
		}
	}
	for i, n := range g.Nodes {
		if err := convertNode(fg, n); err != nil {
			return nil, fmt.Errorf("torchscript: node %d (%s): %w", i, n.Op, err)
		}
	}
	return fg.Finish("torchscript", g.Outputs)
}

// pairAttrs are the (height, width) attributes the importer reads.
var pairAttrs = []string{"kernel_size", "stride", "padding", "dilation", "output_size"}

func convertNode(g *frontend.Graph, n Node) error {
	for _, key := range pairAttrs {
		if v, ok := n.Attrs[key]; ok && len(n.attrInts(key, nil)) != 2 {
			return fmt.Errorf("attribute %s = %v: want 2 ints", key, v)
		}
	}
	in, out := n.Inputs, n.Output
	switch n.Op {
	case "aten::_convolution", "aten::conv2d":
		return g.Conv(in, out, relay.Attrs{"strides": n.attrInts("stride", []int{1, 1}),
			"padding": n.attrInts("padding", []int{0, 0}), "dilation": n.attrInts("dilation", []int{1, 1}),
			"groups": n.attrInt("groups", 1)})
	case "aten::relu":
		return g.Unary(in, out, relay.OpReLU, nil)
	case "aten::leaky_relu":
		return g.Unary(in, out, relay.OpLeakyReLU, relay.Attrs{"alpha": n.attrFloat("negative_slope", 0.01)})
	case "aten::sigmoid":
		return g.Unary(in, out, relay.OpSigmoid, nil)
	case "aten::tanh":
		return g.Unary(in, out, relay.OpTanh, nil)
	case "aten::hardtanh":
		return g.Unary(in, out, relay.OpClip, relay.Attrs{
			"a_min": n.attrFloat("min_val", 0), "a_max": n.attrFloat("max_val", 6)})
	case "aten::dropout":
		return g.Unary(in, out, relay.OpDropout, relay.Attrs{"rate": n.attrFloat("p", 0.5)})
	case "aten::max_pool2d", "aten::avg_pool2d":
		k := n.attrInts("kernel_size", []int{2, 2})
		op := relay.OpMaxPool2D
		if n.Op == "aten::avg_pool2d" {
			op = relay.OpAvgPool2D
		}
		return g.Unary(in, out, op, relay.Attrs{"pool_size": k, "strides": n.attrInts("stride", k)})
	case "aten::adaptive_avg_pool2d":
		size := n.attrInts("output_size", []int{1, 1})
		if size[0] != 1 || size[1] != 1 {
			return fmt.Errorf("adaptive_avg_pool2d only supports 1x1 output, got %v", size)
		}
		return g.Unary(in, out, relay.OpGlobalAvgPool, nil)
	case "aten::batch_norm":
		return g.BatchNorm(in, out, relay.Attrs{"epsilon": n.attrFloat("eps", 1e-5)})
	case "aten::add":
		return g.Binary(in, out, relay.OpAdd)
	case "aten::mul":
		return g.Binary(in, out, relay.OpMultiply)
	case "aten::cat":
		return g.Concat(in, out, n.attrInt("dim", 1))
	case "aten::mean":
		return convertMean(g, n)
	case "aten::flatten":
		return g.Flatten(in, out)
	case "aten::linear":
		return g.Dense(in, out)
	case "aten::softmax":
		return convertSoftmax(g, n)
	case "aten::upsample_nearest2d":
		return g.Unary(in, out, relay.OpUpsampling,
			relay.Attrs{"scale": n.attrInt("scale_factor", 2), "method": "nearest"})
	}
	return fmt.Errorf("aten operator %q not supported by the importer", n.Op)
}

func convertMean(g *frontend.Graph, n Node) error {
	x, tt, err := g.Operand(n.Inputs)
	if err != nil {
		return err
	}
	dims := n.attrInts("dim", nil)
	axes := make([]int, len(dims))
	for i, d := range dims {
		if axes[i], err = frontend.NCHWAxis(d, len(tt.Shape)); err != nil {
			return err
		}
	}
	return g.Set(n.Output, relay.NewCall(relay.OpMean, []relay.Expr{x},
		relay.Attrs{"axis": axes, "keepdims": false}))
}

func convertSoftmax(g *frontend.Graph, n Node) error {
	x, tt, err := g.Operand(n.Inputs)
	if err != nil {
		return err
	}
	dim := n.attrInt("dim", -1)
	if dim < 0 {
		dim += len(tt.Shape)
	}
	if dim != len(tt.Shape)-1 {
		return fmt.Errorf("softmax over dim %d of rank-%d value unsupported (last dim only)", dim, len(tt.Shape))
	}
	return g.Set(n.Output, relay.NewCall(relay.OpSoftmax, []relay.Expr{x}, nil))
}
