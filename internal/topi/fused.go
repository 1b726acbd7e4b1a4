package topi

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Fused quantized conv/dense kernels: quantize→conv→bias→requantize→
// activation in a single launch, computing in int32 instead of materializing
// three intermediate tensors. The Neuron runtime dispatches these for its
// fused operations (runtime.go); the unfused chain remains the reference and
// the fused path is pinned bitwise-equal to it (fused_test.go):
//
//   - accumulator and bias math is associative int32, identical by
//     construction;
//   - requantize is the same float64 expression (requantize in qnn.go);
//   - the activation epilogue operates on the 8-bit post-requantize value, a
//     domain of at most 256 points — so it runs through a lookup table built
//     by evaluating the reference scalar code (relu's raw-domain clamp,
//     clip's GetF/SetF real-domain round trip) on every possible value.
//
// Attrs: the anchor's conv/dense attrs plus the requant_* parameters and
// fused_activation, exactly as the Neuron fusion pass (neuron/fuse.go)
// stores them on the operation.

// activationLUT tabulates the fused activation over every representable
// post-requantize raw value. lutBase is the dtype's minimum raw value.
type activationLUT struct {
	on   bool
	base int32
	tab  [256]int32
}

// buildActivationLUT replicates the unfused epilogue kernels exactly:
// nn.relu's raw-domain zero-point clamp, and clip's real-domain
// Dequantize→clamp→Quantize round trip (relu6).
func buildActivationLUT(activation string, dt tensor.DType, q *tensor.QuantParams) (activationLUT, error) {
	lut := activationLUT{}
	if activation == "" {
		return lut, nil
	}
	lut.on = true
	if dt == tensor.Int8 {
		lut.base = -128
	}
	lo, hi := lut.base, lut.base+255
	switch activation {
	case "relu":
		zp := int32(0)
		if q != nil {
			zp = q.ZeroPoint
		}
		for v := lo; v <= hi; v++ {
			out := v
			if out < zp {
				out = zp
			}
			lut.tab[v-lut.base] = out
		}
	case "relu6":
		for v := lo; v <= hi; v++ {
			real := float64(v)
			if q != nil {
				real = q.Dequantize(v)
			}
			if real < 0 {
				real = 0
			}
			if real > 6 {
				real = 6
			}
			out := int32(real)
			if q != nil {
				out = q.Quantize(real)
			}
			lut.tab[v-lut.base] = clampToDType(out, dt)
		}
	default:
		return lut, fmt.Errorf("fused kernel: unknown activation %q", activation)
	}
	return lut, nil
}

// requantParams extracts the requant_* attribute set the fusion pass stores.
func requantParams(attrs relay.Attrs) (ratio float64, inZp, outZp int32) {
	inScale := attrs.Float("requant_input_scale", 1)
	outScale := attrs.Float("requant_output_scale", 1)
	inZp = int32(attrs.Int("requant_input_zero_point", 0))
	outZp = int32(attrs.Int("requant_output_zero_point", 0))
	return inScale / outScale, inZp, outZp
}

// fusedEpilogue applies bias + requantize + activation to one GEMM output
// row segment and stores it into res.
//
//np:hotpath
func fusedEpilogue(res *tensor.Tensor, acc, bias []int32, flatBase int, ratio float64, reqInZp, reqOutZp int32, dt tensor.DType, lut *activationLUT) {
	for f, a := range acc {
		if bias != nil {
			a += bias[f]
		}
		q := clampToDType(requantize(a, ratio, reqInZp, reqOutZp), dt)
		if lut.on {
			q = lut.tab[q-lut.base]
		}
		setRaw(res, flatBase+f, q)
	}
}

// qnnConv2DFused computes qnn.conv2d → nn.bias_add → qnn.requantize →
// activation in one pass. args: data, weight, and optionally an int32 bias.
func qnnConv2DFused(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, fmt.Errorf("qnn.conv2d_fused wants 2 or 3 args, got %d", len(args))
	}
	data, weight := args[0], args[1]
	var bv []int32
	if len(args) == 3 {
		if args[2].DType != tensor.Int32 {
			return nil, fmt.Errorf("qnn.conv2d_fused bias must be int32, got %s", args[2].DType)
		}
		bv = args[2].I32()
	}
	p := convParams(attrs)
	zpIn := int32(attrs.Int("input_zero_point", 0))
	zpK := int32(attrs.Int("kernel_zero_point", 0))
	ratio, reqInZp, reqOutZp := requantParams(attrs)
	lut, err := buildActivationLUT(attrs.Str("fused_activation", ""), out.DType, out.Quant)
	if err != nil {
		return nil, err
	}

	res := output(dstBuf, out)
	n := data.Shape[0]
	h, w, c := data.Shape[1], data.Shape[2], data.Shape[3]
	oc, kh, kw, icg := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	ocg := oc / p.groups
	k := kh * kw * icg

	pw, err := packedConvWeightI32(weight, oc, k, p.groups, zpK)
	if err != nil {
		return nil, err
	}
	dinP := getScratchI32(data.Elems())
	din := *dinP
	if err := rawMinusZp(din, data, zpIn); err != nil {
		putScratchI32(dinP)
		return nil, err
	}

	// The task key normalizes _fused to its anchor op, so one tuning record
	// covers both the unfused chain and this kernel.
	cfg := tunedConfig(convTaskKey("qnn.conv2d_fused", data, weight, p))
	parallel.ForChunkedOpts(n*oh, cfg.chunkOpts(), func(lo, hi int) {
		colP := getScratchI32(ow * k)
		defer putScratchI32(colP)
		accP := getScratchI32(ow * ocg)
		defer putScratchI32(accP)
		col, acc := *colP, *accP
		for job := lo; job < hi; job++ {
			b := job / oh
			oy := job % oh
			for g := 0; g < p.groups; g++ {
				packColI32(col, din, p, b, oy, g, h, w, c, kh, kw, icg, ow, k)
				gemmI32Cfg(ow, ocg, k, col, k, pw.group(g, ocg), acc, ocg, cfg)
				var gb []int32
				if bv != nil {
					gb = bv[g*ocg : (g+1)*ocg]
				}
				for ox := 0; ox < ow; ox++ {
					fusedEpilogue(res, acc[ox*ocg:(ox+1)*ocg], gb,
						((b*oh+oy)*ow+ox)*oc+g*ocg, ratio, reqInZp, reqOutZp, out.DType, &lut)
				}
			}
		}
	})
	putScratchI32(dinP)
	return res, nil
}

// qnnDenseFused is the FullyConnected analogue: qnn.dense → bias →
// requantize → activation.
func qnnDenseFused(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, fmt.Errorf("qnn.dense_fused wants 2 or 3 args, got %d", len(args))
	}
	data, weight := args[0], args[1]
	var bv []int32
	if len(args) == 3 {
		if args[2].DType != tensor.Int32 {
			return nil, fmt.Errorf("qnn.dense_fused bias must be int32, got %s", args[2].DType)
		}
		bv = args[2].I32()
	}
	zpIn := int32(attrs.Int("input_zero_point", 0))
	zpK := int32(attrs.Int("kernel_zero_point", 0))
	ratio, reqInZp, reqOutZp := requantParams(attrs)
	lut, err := buildActivationLUT(attrs.Str("fused_activation", ""), out.DType, out.Quant)
	if err != nil {
		return nil, err
	}

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
	accP := getScratchI32(n * units)
	acc := *accP
	cfg := tunedConfig(DenseTaskKey("qnn.dense_fused", data, weight))
	gemmI32Cfg(n, units, k, din, k, pw.data, acc, units, cfg)
	for row := 0; row < n; row++ {
		fusedEpilogue(res, acc[row*units:(row+1)*units], bv,
			row*units, ratio, reqInZp, reqOutZp, out.DType, &lut)
	}
	putScratchI32(accP)
	putScratchI32(dinP)
	return res, nil
}

func init() {
	Register("qnn.conv2d_fused", qnnConv2DFused)
	Register("qnn.dense_fused", qnnDenseFused)
}
