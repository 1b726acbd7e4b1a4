package topi

import (
	"fmt"
	"slices"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// Fused conv/dense epilogues, one per element type.
//
// Quantized: qnn.conv2d_fused and qnn.dense_fused are qnn.conv2d and
// qnn.dense (conv.go) — the same strategy rule and loops — with an epilogue,
// bias → requantize → activation, applied to each output row of int32
// accumulators as soon as it is reduced, instead of materializing the int32
// tensor and running three more kernels.
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
// The epilogue is typed: apply switches on the output dtype once per row
// and writes the []uint8 or []int8 directly (epilogueRow) — requantize and
// the clamp (as min and max) in one pass, the branch-free round of
// roundHalfAwayF — instead of a dtype switch per element through setRaw.
// Any other output dtype keeps that loop. Two things make the 8-bit row one
// pass at vector width:
//
//   - the clamp fold: when the activation table is itself a clamp —
//     tab[v] = min(max(v, tab[0]), tab[255]) at all 256 points, which
//     buildActivationLUT proves on the table it has just evaluated — its
//     bounds become the requantize clamp's and the table pass (lutRow) is
//     skipped. relu and relu6 tables are clamps; a table that fails the
//     check keeps lutRow;
//   - the vector body: where the CPU has AVX2, requantVec runs a whole
//     accumulator block eight lanes at a time (gemm_amd64.s), with the bias
//     repeated to lcm(channels, 8) values (tiledBias, kept on the bias
//     tensor) so every lane meets its channel's bias. It performs
//     requantize's IEEE steps in its order — wrapping int32 bias and
//     zero-point arithmetic, the float64 product, the add of a copysign
//     0.5, a truncating conversion that yields 0x80000000 on overflow as
//     Go's int32() does on amd64 — so it is bit-equal by construction;
//     requant_test.go pins it against requantRow. A block's last len%8
//     values, and every value on other CPUs, take requantRow's Go loop.
//
// Attrs: the anchor's conv/dense attrs plus the requant_* parameters and
// fused_activation, exactly as the Neuron fusion pass (neuron/fuse.go)
// stores them on the operation.
//
// Float: nn.conv2d and nn.dense themselves take the Neuron form of a float
// CONV_2D, DEPTHWISE_CONV_2D or FULLY_CONNECTED — an optional bias as
// args[2] and fused_activation — and apply epilogueF32: the GEMM tile adds
// the bias and clamps at its store (storeBounds), the depthwise row runs
// apply over each output row, whose parts are the staged kernels' own loops
// (biasAddRows, clampF32). Both equal nn.conv2d → nn.bias_add →
// nn.relu/clip bit for bit; fused_test.go pins it. The op names are the
// unfused ones.

// activationLUT tabulates the fused activation over every representable
// post-requantize raw value. base is the dtype's minimum raw value. clamp
// records that the table is the clamp [tab[0], tab[255]] (isClamp).
type activationLUT struct {
	clamp bool
	base  int32
	tab   [256]int32
}

// buildActivationLUT replicates the unfused epilogue kernels exactly:
// nn.relu's raw-domain zero-point clamp, and clip's real-domain
// Dequantize→clamp→Quantize round trip (relu6). No activation has no
// table. It runs once per prepared launch (newEpilogue).
func buildActivationLUT(activation string, dt tensor.DType, q *tensor.QuantParams) (*activationLUT, error) {
	if activation == "" {
		return nil, nil
	}
	lut := new(activationLUT)
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
		return nil, fmt.Errorf("fused kernel: unknown activation %q", activation)
	}
	lut.clamp = lut.isClamp()
	return lut, nil
}

// isClamp reports whether the table equals min(max(v, tab[0]), tab[255]) at
// every point, so that clamping to [tab[0], tab[255]] applies it exactly.
func (l *activationLUT) isClamp() bool {
	for i, t := range l.tab {
		if t != min(max(l.base+int32(i), l.tab[0]), l.tab[255]) {
			return false
		}
	}
	return true
}

// epilogue is the tail a fused launch applies to its accumulators. Prepare
// builds it from the attributes and types (newEpilogue); the bias and its
// tile are the bias tensor's, bound by every run (bind).
type epilogue struct {
	bias        []int32 // nil, or one value per output channel
	tile        []int32 // bias repeated to lcm(channels, 8) values, or nil
	channels    int     // the output's innermost extent
	ratio       float64 // requant_input_scale / requant_output_scale
	inZp, outZp int32
	dt          tensor.DType
	lut         *activationLUT // nil: no activation
}

// newEpilogue prepares the epilogue of one fused launch: in are the types
// of data, weight and an optional int32 bias of one value per output
// channel; attrs carry the requant_* parameters and fused_activation.
func newEpilogue(op string, in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (epilogue, error) {
	e := epilogue{
		channels: out.Shape[len(out.Shape)-1],
		ratio:    attrs.Float("requant_input_scale", 1) / attrs.Float("requant_output_scale", 1),
		inZp:     int32(attrs.Int("requant_input_zero_point", 0)),
		outZp:    int32(attrs.Int("requant_output_zero_point", 0)),
		dt:       out.DType,
	}
	if len(in) != 2 && len(in) != 3 {
		return e, fmt.Errorf("%s wants 2 or 3 args, got %d", op, len(in))
	}
	if len(in) == 3 {
		if in[2].DType != tensor.Int32 {
			return e, fmt.Errorf("%s bias must be int32, got %s", op, in[2].DType)
		}
		if n := in[2].Shape.Elems(); n != e.channels {
			return e, fmt.Errorf("%s bias has %d elements, output has %d channels", op, n, e.channels)
		}
	}
	var err error
	e.lut, err = buildActivationLUT(attrs.Str("fused_activation", ""), out.DType, out.Quant)
	return e, err
}

// bind returns the epilogue with the bias of one launch's args — args[2],
// when there is one — and its tile (tiledBias, kept on the bias tensor).
func (e *epilogue) bind(args []*tensor.Tensor) epilogue {
	b := *e
	if len(args) == 3 {
		b.bias, b.tile = args[2].I32(), tiledBias(args[2])
	}
	return b
}

// apply narrows acc — whole output pixels (conv) or rows (dense) of
// e.channels accumulators — into res from flat index base: bias,
// requantize, clamp to the output dtype, activation. An 8-bit output is
// written through its typed slice by epilogueRow; any other keeps the
// per-element setRaw loop.
//
//np:hotpath
func (e *epilogue) apply(res *tensor.Tensor, acc []int32, base int) {
	switch res.DType {
	case tensor.UInt8:
		epilogueRow(e, res.U8()[base:base+len(acc)], acc, 0, 255)
	case tensor.Int8:
		epilogueRow(e, res.I8()[base:base+len(acc)], acc, -128, 127)
	default:
		for off := 0; off < len(acc); off += e.channels {
			for f, a := range acc[off : off+e.channels] {
				if e.bias != nil {
					a += e.bias[f]
				}
				q := clampToDType(requantize(a, e.ratio, e.inZp, e.outZp), e.dt)
				if e.lut != nil {
					q = e.lut.tab[q-e.lut.base]
				}
				setRaw(res, base+off+f, q)
			}
		}
	}
}

// epilogueRow is apply into an 8-bit destination whose raw range is
// [lo, hi]: one requantize pass over the block, clamped to the activation's
// bounds when the table is a clamp, else followed by the table in place.
// requantVec takes the block's leading multiple of eight values; requantRow
// the rest, in runs that end where the tiled bias wraps.
//
//np:hotpath
func epilogueRow[T uint8 | int8](e *epilogue, dst []T, acc []int32, lo, hi int32) {
	dst = dst[:len(acc)]
	if e.lut != nil && e.lut.clamp {
		lo, hi = e.lut.tab[0], e.lut.tab[255]
	}
	if e.tile == nil {
		off := requantVec(dst, acc, zeroTile[:], e.ratio, e.inZp, e.outZp, lo, hi)
		requantRow(dst[off:], acc[off:], nil, e.ratio, e.inZp, e.outZp, lo, hi)
	} else {
		for off := requantVec(dst, acc, e.tile, e.ratio, e.inZp, e.outZp, lo, hi); off < len(acc); {
			end := min(len(acc), off+len(e.tile)-off%len(e.tile))
			requantRow(dst[off:end], acc[off:end], e.tile[off%len(e.tile):], e.ratio, e.inZp, e.outZp, lo, hi)
			off = end
		}
	}
	if e.lut != nil && !e.lut.clamp {
		lutRow(dst, e.lut)
	}
}

// zeroTile is the tiled bias of an epilogue without one: adding zero leaves
// every int32 as it is.
var zeroTile [8]int32

// tiledBias returns the bias tensor b repeated to the least multiple of
// eight values that is a multiple of its length, kept on b (Tensor.Derived)
// once built. A stored tile that no longer starts with b's values is
// rebuilt rather than trusted.
func tiledBias(b *tensor.Tensor) []int32 {
	bias := b.I32()
	if t, ok := b.Derived().([]int32); ok && slices.Equal(t[:len(bias)], bias) {
		return t
	}
	n := len(bias)
	for n%8 != 0 {
		n += len(bias)
	}
	t := make([]int32, n)
	for i := range t {
		t[i] = bias[i%len(bias)]
	}
	b.SetDerived(t)
	return t
}

// requantRow writes d[f] = clamp(requantize(a[f] + bias[f])) to [lo, hi]
// (no bias: a[f] alone): the float64 requantize expression, the clamp as
// min and max.
//
//np:hotpath
func requantRow[T uint8 | int8](d []T, a, bias []int32, ratio float64, inZp, outZp, lo, hi int32) {
	d = d[:len(a)]
	if bias == nil {
		for f, v := range a {
			d[f] = T(min(max(requantize(v, ratio, inZp, outZp), lo), hi))
		}
		return
	}
	bias = bias[:len(a)]
	for f, v := range a {
		d[f] = T(min(max(requantize(v+bias[f], ratio, inZp, outZp), lo), hi))
	}
}

// lutRow maps a clamped 8-bit row through the activation table in place;
// a value's offset from the table's base is its low byte.
//
//np:hotpath
func lutRow[T uint8 | int8](d []T, lut *activationLUT) {
	for i, v := range d {
		d[i] = T(lut.tab[uint8(int32(v)-lut.base)])
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

// newEpilogueF32 prepares a float launch's epilogue: in are the types of
// data, weight and an optional float32 bias of one value per output
// channel; attrs may carry fused_activation.
func newEpilogueF32(op string, in []*relay.TensorType, attrs relay.Attrs, out *relay.TensorType) (epilogueF32, error) {
	var e epilogueF32
	if len(in) != 2 && len(in) != 3 {
		return e, fmt.Errorf("%s kernel expects 2 or 3 args, got %d", op, len(in))
	}
	if len(in) == 3 {
		channels := out.Shape[len(out.Shape)-1]
		if in[2].DType != tensor.Float32 {
			return e, fmt.Errorf("%s bias must be float32, got %s", op, in[2].DType)
		}
		if n := in[2].Shape.Elems(); n != channels {
			return e, fmt.Errorf("%s bias has %d elements, output has %d channels", op, n, channels)
		}
	}
	var err error
	e.clamp, e.act, err = fusedActivationF32(attrs.Str("fused_activation", ""))
	return e, err
}

// bind returns the epilogue with the bias of one launch's args, args[2]
// when there is one.
func (e epilogueF32) bind(args []*tensor.Tensor) epilogueF32 {
	if len(args) == 3 {
		e.bias = args[2].F32()
	}
	return e
}

// apply runs the epilogue in place over row — whole output pixels of a
// depthwise convolution's row, one value per output channel. The GEMM tiles
// apply the same two steps at their store instead.
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

func init() {
	registerPrepared("qnn.conv2d_fused", prepareQnnConv2D("qnn.conv2d_fused", true))
	registerPrepared("qnn.dense_fused", prepareQnnDense("qnn.dense_fused", true))
}
