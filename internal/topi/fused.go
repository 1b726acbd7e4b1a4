package topi

import (
	"fmt"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// Fused conv/dense epilogues, one per element type.
//
// Quantized: qnn.conv2d_fused and qnn.dense_fused are
// qnn.conv2d and qnn.dense (conv.go) — the same strategy rule, task key,
// tuned record and loops — with an epilogue, bias → requantize → activation,
// applied to each output row of int32 accumulators as soon as it is reduced,
// instead of materializing the int32 tensor and running three more kernels.
// The Neuron runtime dispatches them for its fused operations (runtime.go);
// the staged chain remains the reference and the fused launch is pinned
// bitwise-equal to it (fused_test.go):
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
//
// Float: nn.conv2d and nn.dense themselves take the Neuron form of a float
// CONV_2D, DEPTHWISE_CONV_2D or FULLY_CONNECTED — an optional bias as
// args[2] and fused_activation — and run epilogueF32 over each output row.
// Its parts are the staged kernels' own loops (biasAddRows, clampF32), so
// the launch equals nn.conv2d → nn.bias_add → nn.relu/clip by construction;
// fused_test.go pins it anyway. The op names, and so the task keys and
// tuning records, are the unfused ones.

// activationLUT tabulates the fused activation over every representable
// post-requantize raw value. base is the dtype's minimum raw value.
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

// epilogue is the tail a fused launch applies to its accumulators.
type epilogue struct {
	bias        []int32 // nil, or one value per output channel
	channels    int     // the output's innermost extent
	ratio       float64 // requant_input_scale / requant_output_scale
	inZp, outZp int32
	dt          tensor.DType
	lut         activationLUT
}

// newEpilogue reads the epilogue of one fused launch: args are data, weight
// and an optional int32 bias of one value per output channel; attrs carry
// the requant_* parameters and fused_activation.
func newEpilogue(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (epilogue, error) {
	e := epilogue{
		channels: out.Shape[len(out.Shape)-1],
		ratio:    attrs.Float("requant_input_scale", 1) / attrs.Float("requant_output_scale", 1),
		inZp:     int32(attrs.Int("requant_input_zero_point", 0)),
		outZp:    int32(attrs.Int("requant_output_zero_point", 0)),
		dt:       out.DType,
	}
	if len(args) != 2 && len(args) != 3 {
		return e, fmt.Errorf("%s wants 2 or 3 args, got %d", op, len(args))
	}
	if len(args) == 3 {
		if args[2].DType != tensor.Int32 {
			return e, fmt.Errorf("%s bias must be int32, got %s", op, args[2].DType)
		}
		if e.bias = args[2].I32(); len(e.bias) != e.channels {
			return e, fmt.Errorf("%s bias has %d elements, output has %d channels", op, len(e.bias), e.channels)
		}
	}
	var err error
	e.lut, err = buildActivationLUT(attrs.Str("fused_activation", ""), out.DType, out.Quant)
	return e, err
}

// apply narrows acc — whole output pixels (conv) or rows (dense) of
// e.channels accumulators — into res from flat index base: bias, requantize,
// clamp to the output dtype, activation.
//
//np:hotpath
func (e *epilogue) apply(res *tensor.Tensor, acc []int32, base int) {
	bias, ratio, inZp, outZp, dt, lut := e.bias, e.ratio, e.inZp, e.outZp, e.dt, &e.lut
	for off := 0; off < len(acc); off += e.channels {
		for f, a := range acc[off : off+e.channels] {
			if bias != nil {
				a += bias[f]
			}
			q := clampToDType(requantize(a, ratio, inZp, outZp), dt)
			if lut.on {
				q = lut.tab[q-lut.base]
			}
			setRaw(res, base+off+f, q)
		}
	}
}

// epilogueF32 is the tail of a float conv/dense launch: bias, then the
// activation clamp. The zero value does nothing.
type epilogueF32 struct {
	bias  []float32 // nil, or one value per output channel
	act   bool
	clamp clampF32
}

// fusedActivationF32 maps fused_activation to its staged kernel's clamp:
// nn.relu, and clip at [0, 6] for relu6 (the Neuron runtime's relu6Attrs).
func fusedActivationF32(activation string) (clampF32, bool, error) {
	switch activation {
	case "":
		return clampF32{}, false, nil
	case "relu":
		return reluClamp, true, nil
	case "relu6":
		return newClampF32(0, 6), true, nil
	}
	return clampF32{}, false, fmt.Errorf("fused kernel: unknown activation %q", activation)
}

// newEpilogueF32 reads a float launch's epilogue: args are data, weight and
// an optional float32 bias of one value per output channel; attrs may carry
// fused_activation.
func newEpilogueF32(op string, args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType) (epilogueF32, error) {
	var e epilogueF32
	if len(args) != 2 && len(args) != 3 {
		return e, fmt.Errorf("%s kernel expects 2 or 3 args, got %d", op, len(args))
	}
	if len(args) == 3 {
		channels := out.Shape[len(out.Shape)-1]
		if args[2].DType != tensor.Float32 {
			return e, fmt.Errorf("%s bias must be float32, got %s", op, args[2].DType)
		}
		if e.bias = args[2].F32(); len(e.bias) != channels {
			return e, fmt.Errorf("%s bias has %d elements, output has %d channels", op, len(e.bias), channels)
		}
	}
	var err error
	e.clamp, e.act, err = fusedActivationF32(attrs.Str("fused_activation", ""))
	return e, err
}

// apply runs the epilogue in place over row — whole output pixels (conv) or
// rows (dense) of one value per output channel.
//
//np:hotpath
func (e *epilogueF32) apply(row []float32) {
	if e.bias != nil {
		biasAddRows(row, row, e.bias, 0)
	}
	if e.act {
		e.clamp.rows(row, row)
	}
}

// qnnConv2DFused is qnn.conv2d → nn.bias_add → qnn.requantize → activation
// in one launch.
func qnnConv2DFused(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	ep, err := newEpilogue("qnn.conv2d_fused", args, attrs, out)
	if err != nil {
		return nil, err
	}
	return quantizedConv("qnn.conv2d_fused", args, attrs, out, dstBuf, &ep)
}

// qnnDenseFused is the FullyConnected analogue: qnn.dense → bias →
// requantize → activation.
func qnnDenseFused(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	ep, err := newEpilogue("qnn.dense_fused", args, attrs, out)
	if err != nil {
		return nil, err
	}
	return quantizedDense("qnn.dense_fused", args, attrs, out, dstBuf, &ep)
}

func init() {
	Register("qnn.conv2d_fused", qnnConv2DFused)
	Register("qnn.dense_fused", qnnDenseFused)
}
