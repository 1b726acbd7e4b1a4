package torchscript

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Reference executes the traced graph directly in PyTorch's native NCHW
// layout with independent naive kernels. It reproduces the paper's §4.1
// verification step ("we also ran PyTorch's original method to see if the
// output was the same"): tests run a model through the importer + relay
// executor and through this evaluator, then compare.
func Reference(g *Graph, params StateDict, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	env := map[string]*tensor.Tensor{}
	for k, v := range params {
		env[k] = v
	}
	for _, in := range g.Inputs {
		t, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("torch reference: missing input %q", in.Name)
		}
		env[in.Name] = t
	}
	for i, n := range g.Nodes {
		out, err := refNode(n, env)
		if err != nil {
			return nil, fmt.Errorf("torch reference: node %d (%s): %w", i, n.Op, err)
		}
		env[n.Output] = out
	}
	res := map[string]*tensor.Tensor{}
	for _, o := range g.Outputs {
		t, ok := env[o]
		if !ok {
			return nil, fmt.Errorf("torch reference: unknown output %q", o)
		}
		res[o] = t
	}
	return res, nil
}

func refNode(n Node, env map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	in := func(i int) (*tensor.Tensor, error) {
		if i >= len(n.Inputs) {
			return nil, fmt.Errorf("missing input %d", i)
		}
		t, ok := env[n.Inputs[i]]
		if !ok {
			return nil, fmt.Errorf("unknown value %q", n.Inputs[i])
		}
		return t, nil
	}
	x, err := in(0)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "aten::_convolution", "aten::conv2d":
		w, err := in(1)
		if err != nil {
			return nil, err
		}
		var b *tensor.Tensor
		if len(n.Inputs) >= 3 {
			if b, err = in(2); err != nil {
				return nil, err
			}
		}
		stride := n.attrInts("stride", []int{1, 1})
		pad := n.attrInts("padding", []int{0, 0})
		groups := n.attrInt("groups", 1)
		return refConvNCHW(x, w, b, stride[0], stride[1], pad[0], pad[1], groups), nil
	case "aten::relu":
		return refMap(x, func(v float64) float64 { return math.Max(v, 0) }), nil
	case "aten::leaky_relu":
		a := n.attrFloat("negative_slope", 0.01)
		return refMap(x, func(v float64) float64 {
			if v < 0 {
				return v * a
			}
			return v
		}), nil
	case "aten::sigmoid":
		return refMap(x, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }), nil
	case "aten::tanh":
		return refMap(x, math.Tanh), nil
	case "aten::hardtanh":
		lo, hi := n.attrFloat("min_val", 0), n.attrFloat("max_val", 6)
		return refMap(x, func(v float64) float64 { return math.Min(math.Max(v, lo), hi) }), nil
	case "aten::dropout":
		return x, nil
	case "aten::max_pool2d":
		k := n.attrInts("kernel_size", []int{2, 2})
		s := n.attrInts("stride", k)
		return refPoolNCHW(x, k[0], k[1], s[0], s[1], true), nil
	case "aten::avg_pool2d":
		k := n.attrInts("kernel_size", []int{2, 2})
		s := n.attrInts("stride", k)
		return refPoolNCHW(x, k[0], k[1], s[0], s[1], false), nil
	case "aten::adaptive_avg_pool2d":
		return refPoolNCHW(x, x.Shape[2], x.Shape[3], 1, 1, false), nil
	case "aten::batch_norm":
		var ps [4]*tensor.Tensor
		for i := 0; i < 4; i++ {
			p, err := in(i + 1)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return refBatchNormNCHW(x, ps[0], ps[1], ps[2], ps[3], n.attrFloat("eps", 1e-5)), nil
	case "aten::add":
		y, err := in(1)
		if err != nil {
			return nil, err
		}
		return refZip(x, y, func(a, b float64) float64 { return a + b }), nil
	case "aten::mul":
		y, err := in(1)
		if err != nil {
			return nil, err
		}
		return refZip(x, y, func(a, b float64) float64 { return a * b }), nil
	case "aten::cat":
		tensors := make([]*tensor.Tensor, len(n.Inputs))
		for i := range n.Inputs {
			if tensors[i], err = in(i); err != nil {
				return nil, err
			}
		}
		return refCat(tensors, n.attrInt("dim", 1)), nil
	case "aten::mean":
		return refMeanSpatialNCHW(x), nil
	case "aten::flatten":
		nElems := 1
		for _, d := range x.Shape[1:] {
			nElems *= d
		}
		return x.Reshape(tensor.Shape{x.Shape[0], nElems}), nil
	case "aten::linear":
		w, err := in(1)
		if err != nil {
			return nil, err
		}
		var b *tensor.Tensor
		if len(n.Inputs) >= 3 {
			if b, err = in(2); err != nil {
				return nil, err
			}
		}
		return refLinear(x, w, b), nil
	case "aten::softmax":
		return refSoftmaxLastDim(x), nil
	case "aten::upsample_nearest2d":
		return refUpsampleNCHW(x, n.attrInt("scale_factor", 2)), nil
	}
	return nil, fmt.Errorf("reference evaluator does not implement %q", n.Op)
}

func refMap(x *tensor.Tensor, f func(float64) float64) *tensor.Tensor {
	out := tensor.New(tensor.Float32, x.Shape)
	for i, n := 0, x.Elems(); i < n; i++ {
		out.SetF(i, f(x.GetF(i)))
	}
	return out
}

func refZip(a, b *tensor.Tensor, f func(x, y float64) float64) *tensor.Tensor {
	out := tensor.New(tensor.Float32, a.Shape)
	for i, n := 0, a.Elems(); i < n; i++ {
		out.SetF(i, f(a.GetF(i), b.GetF(i)))
	}
	return out
}

func refConvNCHW(x, w, b *tensor.Tensor, sh, sw, ph, pw, groups int) *tensor.Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oc, icg, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh := (h+2*ph-kh)/sh + 1
	ow := (wd+2*pw-kw)/sw + 1
	out := tensor.New(tensor.Float32, tensor.Shape{n, oc, oh, ow})
	ocg := oc / groups
	for bi := 0; bi < n; bi++ {
		for o := 0; o < oc; o++ {
			g := o / ocg
			bias := 0.0
			if b != nil {
				bias = b.GetF(o)
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := bias
					for ic := 0; ic < icg; ic++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*sh - ph + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*sw - pw + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += x.At(bi, g*icg+ic, iy, ix) * w.At(o, ic, ky, kx)
							}
						}
					}
					out.Set(acc, bi, o, oy, ox)
				}
			}
		}
	}
	_ = c
	return out
}

func refPoolNCHW(x *tensor.Tensor, kh, kw, sh, sw int, isMax bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-kh)/sh + 1
	ow := (w-kw)/sw + 1
	out := tensor.New(tensor.Float32, tensor.Shape{n, c, oh, ow})
	for bi := 0; bi < n; bi++ {
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					if isMax {
						best := math.Inf(-1)
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								best = math.Max(best, x.At(bi, ci, oy*sh+ky, ox*sw+kx))
							}
						}
						out.Set(best, bi, ci, oy, ox)
					} else {
						sum := 0.0
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								sum += x.At(bi, ci, oy*sh+ky, ox*sw+kx)
							}
						}
						out.Set(sum/float64(kh*kw), bi, ci, oy, ox)
					}
				}
			}
		}
	}
	return out
}

func refBatchNormNCHW(x, g, b, m, v *tensor.Tensor, eps float64) *tensor.Tensor {
	out := tensor.New(tensor.Float32, x.Shape)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	for bi := 0; bi < n; bi++ {
		for ci := 0; ci < c; ci++ {
			scale := g.GetF(ci) / math.Sqrt(v.GetF(ci)+eps)
			shift := b.GetF(ci) - m.GetF(ci)*scale
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					out.Set(x.At(bi, ci, y, xx)*scale+shift, bi, ci, y, xx)
				}
			}
		}
	}
	return out
}

func refCat(ts []*tensor.Tensor, dim int) *tensor.Tensor {
	shape := ts[0].Shape.Clone()
	for _, t := range ts[1:] {
		shape[dim] += t.Shape[dim]
	}
	out := tensor.New(tensor.Float32, shape)
	outer := 1
	for i := 0; i < dim; i++ {
		outer *= shape[i]
	}
	inner := 1
	for i := dim + 1; i < len(shape); i++ {
		inner *= shape[i]
	}
	off := 0
	for _, t := range ts {
		ax := t.Shape[dim]
		for o := 0; o < outer; o++ {
			for a := 0; a < ax; a++ {
				srcBase := (o*ax + a) * inner
				dstBase := (o*shape[dim] + off + a) * inner
				for i := 0; i < inner; i++ {
					out.SetF(dstBase+i, t.GetF(srcBase+i))
				}
			}
		}
		off += ax
	}
	return out
}

func refMeanSpatialNCHW(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(tensor.Float32, tensor.Shape{n, c})
	for bi := 0; bi < n; bi++ {
		for ci := 0; ci < c; ci++ {
			sum := 0.0
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					sum += x.At(bi, ci, y, xx)
				}
			}
			out.Set(sum/float64(h*w), bi, ci)
		}
	}
	return out
}

func refLinear(x, w, b *tensor.Tensor) *tensor.Tensor {
	n, k := x.Shape[0], x.Shape[1]
	units := w.Shape[0]
	out := tensor.New(tensor.Float32, tensor.Shape{n, units})
	for r := 0; r < n; r++ {
		for u := 0; u < units; u++ {
			acc := 0.0
			if b != nil {
				acc = b.GetF(u)
			}
			for i := 0; i < k; i++ {
				acc += x.At(r, i) * w.At(u, i)
			}
			out.Set(acc, r, u)
		}
	}
	return out
}

func refSoftmaxLastDim(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(tensor.Float32, x.Shape)
	last := x.Shape[len(x.Shape)-1]
	rows := x.Elems() / last
	for r := 0; r < rows; r++ {
		base := r * last
		maxV := math.Inf(-1)
		for i := 0; i < last; i++ {
			maxV = math.Max(maxV, x.GetF(base+i))
		}
		sum := 0.0
		for i := 0; i < last; i++ {
			e := math.Exp(x.GetF(base+i) - maxV)
			out.SetF(base+i, e)
			sum += e
		}
		for i := 0; i < last; i++ {
			out.SetF(base+i, out.GetF(base+i)/sum)
		}
	}
	return out
}

func refUpsampleNCHW(x *tensor.Tensor, scale int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(tensor.Float32, tensor.Shape{n, c, h * scale, w * scale})
	for bi := 0; bi < n; bi++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h*scale; y++ {
				for xx := 0; xx < w*scale; xx++ {
					out.Set(x.At(bi, ci, y/scale, xx/scale), bi, ci, y, xx)
				}
			}
		}
	}
	return out
}

// NCHWToNHWC converts an activation tensor between layouts.
func NCHWToNHWC(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(x.DType, tensor.Shape{n, h, w, c})
	for bi := 0; bi < n; bi++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					out.Set(x.At(bi, ci, y, xx), bi, y, xx, ci)
				}
			}
		}
	}
	return out
}

// NHWCToNCHW is the inverse conversion.
func NHWCToNCHW(x *tensor.Tensor) *tensor.Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(x.DType, tensor.Shape{n, c, h, w})
	for bi := 0; bi < n; bi++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for ci := 0; ci < c; ci++ {
					out.Set(x.At(bi, y, xx, ci), bi, ci, y, xx)
				}
			}
		}
	}
	return out
}
