package topi

import (
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// conv2dParams gathers the attribute set shared by float and quantized
// convolution.
type conv2dParams struct {
	sh, sw, dh, dw, groups int
	pad                    [4]int // top, left, bottom, right
}

func convParams(attrs relay.Attrs) conv2dParams {
	p := conv2dParams{groups: attrs.Int("groups", 1)}
	p.sh, p.sw = attrs.IntPair("strides", 1)
	p.dh, p.dw = attrs.IntPair("dilation", 1)
	p.pad = attrs.Pad4("padding")
	return p
}

// conv2DF32 is the float32 convolution: NHWC data, OHWI weight.
func conv2DF32(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "nn.conv2d"); err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	p := convParams(attrs)

	// Shapes that fill the GEMM tile take the im2col + GEMM path (contiguous
	// inner loops, SIMD on amd64); the rest stay on the direct kernel. A
	// tuned record overrides the heuristic; both paths are pinned
	// bit-identical, so the switch is a pure performance decision.
	cfg := tunedConfig(convTaskKey("nn.conv2d", data, weight, p))
	if convUseIm2col(cfg, out.Shape, weight.Shape, p.groups) {
		return conv2DF32Im2col(data, weight, p, out, dstBuf, cfg), nil
	}
	return conv2DF32Direct(data, weight, p, out, dstBuf, cfg), nil
}

// conv2DF32Direct is the direct kernel. Parallelized over (batch × output
// row); each goroutine owns disjoint output rows so there is no shared
// mutable state.
func conv2DF32Direct(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, dstBuf *tensor.Tensor, cfg *KernelConfig) *tensor.Tensor {
	res := output(dstBuf, out)
	n := data.Shape[0]
	h, w, c := data.Shape[1], data.Shape[2], data.Shape[3]
	oc, kh, kw, icg := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	ocg := oc / p.groups

	din := data.F32()
	wt := weight.F32()
	dout := res.F32()

	parallel.ForChunkedOpts(n*oh, cfg.chunkOpts(), func(lo, hi int) {
		for job := lo; job < hi; job++ {
			b := job / oh
			oy := job % oh
			for ox := 0; ox < ow; ox++ {
				outBase := ((b*oh+oy)*ow + ox) * oc
				for g := 0; g < p.groups; g++ {
					for f := 0; f < ocg; f++ {
						o := g*ocg + f
						var acc float32
						for ky := 0; ky < kh; ky++ {
							iy := oy*p.sh - p.pad[0] + ky*p.dh
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*p.sw - p.pad[1] + kx*p.dw
								if ix < 0 || ix >= w {
									continue
								}
								inBase := ((b*h+iy)*w+ix)*c + g*icg
								wBase := ((o*kh+ky)*kw + kx) * icg
								for ic := 0; ic < icg; ic++ {
									acc += din[inBase+ic] * wt[wBase+ic]
								}
							}
						}
						dout[outBase+o] = acc
					}
				}
			}
		}
	})
	return res
}

// convUseIm2col applies the tuned conv-strategy knob on top of the built-in
// heuristic: an explicit record wins, ConvAuto (or no record) asks
// im2colPays. out is the NHWC output shape, weight the OHWI filter shape.
func convUseIm2col(cfg *KernelConfig, out, weight tensor.Shape, groups int) bool {
	if cfg != nil {
		switch cfg.ConvStrategy {
		case ConvIm2col:
			return true
		case ConvDirect:
			return false
		}
	}
	return im2colPays(out, weight, groups)
}

// qnnConv2D is the quantized convolution producing an int32 accumulator:
// acc = Σ (q_in - zp_in) * (q_w - zp_w). The requantize kernel narrows the
// accumulator back to 8 bits.
func qnnConv2D(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "qnn.conv2d"); err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	p := convParams(attrs)
	zpIn := int32(attrs.Int("input_zero_point", 0))
	zpK := int32(attrs.Int("kernel_zero_point", 0))

	// Same strategy rule as the float kernel (im2colPays); integer
	// accumulation is associative, so both paths are bitwise identical. A
	// tuned record overrides the heuristic.
	cfg := tunedConfig(convTaskKey("qnn.conv2d", data, weight, p))
	if convUseIm2col(cfg, out.Shape, weight.Shape, p.groups) {
		return conv2DQnnIm2col(data, weight, p, zpIn, zpK, out, dstBuf, cfg)
	}
	return conv2DQnnDirect(data, weight, p, zpIn, zpK, out, dstBuf, cfg)
}

// conv2DQnnDirect is the quantized direct kernel.
func conv2DQnnDirect(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, dstBuf *tensor.Tensor, cfg *KernelConfig) (*tensor.Tensor, error) {
	res := output(dstBuf, out)
	n := data.Shape[0]
	h, w, c := data.Shape[1], data.Shape[2], data.Shape[3]
	oc, kh, kw, icg := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	ocg := oc / p.groups

	// Widen both operands once into pooled (raw − zp) scratch: the inner
	// loop then runs multiply-accumulate only, and the kernel allocates
	// nothing in steady state.
	dinP := getScratchI32(data.Elems())
	din := *dinP
	if err := rawMinusZp(din, data, zpIn); err != nil {
		putScratchI32(dinP)
		return nil, err
	}
	wtP := getScratchI32(weight.Elems())
	wt := *wtP
	if err := rawMinusZp(wt, weight, zpK); err != nil {
		putScratchI32(dinP)
		putScratchI32(wtP)
		return nil, err
	}
	dout := res.I32()

	parallel.ForChunkedOpts(n*oh, cfg.chunkOpts(), func(lo, hi int) {
		for job := lo; job < hi; job++ {
			b := job / oh
			oy := job % oh
			for ox := 0; ox < ow; ox++ {
				outBase := ((b*oh+oy)*ow + ox) * oc
				for g := 0; g < p.groups; g++ {
					for f := 0; f < ocg; f++ {
						o := g*ocg + f
						var acc int32
						for ky := 0; ky < kh; ky++ {
							iy := oy*p.sh - p.pad[0] + ky*p.dh
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*p.sw - p.pad[1] + kx*p.dw
								if ix < 0 || ix >= w {
									continue
								}
								inBase := ((b*h+iy)*w+ix)*c + g*icg
								wBase := ((o*kh+ky)*kw + kx) * icg
								for ic := 0; ic < icg; ic++ {
									acc += din[inBase+ic] * wt[wBase+ic]
								}
							}
						}
						// Padding contributes (zp_in - zp_in) = 0 with the
						// skip-out-of-bounds loop above only when the padded
						// value equals the zero point — which is exactly the
						// QNN convention (pad with zp), so skipping is correct.
						dout[outBase+o] = acc
					}
				}
			}
		}
	})
	putScratchI32(dinP)
	putScratchI32(wtP)
	return res, nil
}

func denseF32(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "nn.dense"); err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	res := output(dstBuf, out)
	n, k := data.Shape[0], data.Shape[1]
	units := weight.Shape[0]
	// nn.dense is GEMM by definition: rows of data against rows of weight.
	// The packed panels come from the per-weight cache; tile parallelism
	// inside gemmF32 draws on the shared worker budget.
	cfg := tunedConfig(DenseTaskKey("nn.dense", data, weight))
	pw := packedConvWeightF32(weight, units, k, 1)
	gemmF32Cfg(n, units, k, data.F32(), k, pw.data, res.F32(), units, cfg)
	return res, nil
}

func qnnDense(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "qnn.dense"); err != nil {
		return nil, err
	}
	data, weight := args[0], args[1]
	zpIn := int32(attrs.Int("input_zero_point", 0))
	zpK := int32(attrs.Int("kernel_zero_point", 0))
	res := output(dstBuf, out)
	n, k := data.Shape[0], data.Shape[1]
	units := weight.Shape[0]
	pw, err := packedConvWeightI32(weight, units, k, 1, zpK)
	if err != nil {
		return nil, err
	}
	dinP := getScratchI32(n * k)
	din := *dinP
	if err := rawMinusZp(din, data, zpIn); err != nil {
		putScratchI32(dinP)
		return nil, err
	}
	cfg := tunedConfig(DenseTaskKey("qnn.dense", data, weight))
	gemmI32Cfg(n, units, k, din, k, pw.data, res.I32(), units, cfg)
	putScratchI32(dinP)
	return res, nil
}

func init() {
	Register("nn.conv2d", conv2DF32)
	Register("qnn.conv2d", qnnConv2D)
	Register("nn.dense", denseF32)
	Register("qnn.dense", qnnDense)
}
