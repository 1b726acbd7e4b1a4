package topi

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// QNN elementwise kernels: quantize/dequantize/requantize and the
// dual-rescaling quantized add/concatenate.

func clampToDType(v int32, dt tensor.DType) int32 {
	switch dt {
	case tensor.Int8:
		if v < -128 {
			return -128
		}
		if v > 127 {
			return 127
		}
	case tensor.UInt8:
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
	}
	return v
}

// roundHalfAwayF rounds half away from zero without a branch: x + 0.5 for
// x >= 0 (−0 included, which truncates to 0 either way), x − 0.5 below.
// The conversion keeps x rounded when a caller's product is inlined into
// it: the add must not fuse with that multiply.
func roundHalfAwayF(x float64) int32 {
	return int32(float64(x) + math.Copysign(0.5, x))
}

func qnnQuantize(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "qnn.quantize"); err != nil {
		return nil, err
	}
	in := args[0]
	scale := attrs.Float("output_scale", 1)
	zp := int32(attrs.Int("output_zero_point", 0))
	res := output(dstBuf, out)
	src := in.F32()
	quantizeRegion.Elems(len(src), quantizeArgs{src, res, scale, zp, out.DType})
	return res, nil
}

var quantizeRegion = parallel.NewRegion(quantizeArgs.run)

// quantizeArgs is qnn.quantize's chunk.
type quantizeArgs struct {
	src   []float32
	res   *tensor.Tensor
	scale float64
	zp    int32
	dt    tensor.DType
}

func (a quantizeArgs) run(lo, hi int) {
	for i := lo; i < hi; i++ {
		q := roundHalfAwayF(float64(a.src[i])/a.scale) + a.zp
		setRaw(a.res, i, clampToDType(q, a.dt))
	}
}

func qnnDequantize(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "qnn.dequantize"); err != nil {
		return nil, err
	}
	in := args[0]
	scale := attrs.Float("input_scale", 0)
	zp := int32(attrs.Int("input_zero_point", 0))
	if scale == 0 && in.Quant != nil {
		// Fall back to tensor-carried params (the §3.3 propagation makes
		// these available even when the frontend omitted the attrs).
		scale, zp = in.Quant.Scale, in.Quant.ZeroPoint
	}
	res := output(dstBuf, out)
	dst := res.F32()
	for i := range dst {
		dst[i] = float32(scale * float64(in.GetRaw(i)-zp))
	}
	return res, nil
}

func qnnRequantize(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 1, "qnn.requantize"); err != nil {
		return nil, err
	}
	in := args[0]
	inScale := attrs.Float("input_scale", 1)
	inZp := int32(attrs.Int("input_zero_point", 0))
	outScale := attrs.Float("output_scale", 1)
	outZp := int32(attrs.Int("output_zero_point", 0))
	ratio := inScale / outScale
	res := output(dstBuf, out)
	requantRegion.Elems(in.Elems(), requantArgs{res, in, ratio, inZp, outZp, out.DType})
	return res, nil
}

var requantRegion = parallel.NewRegion(requantArgs.run)

// requantArgs is qnn.requantize's chunk.
type requantArgs struct {
	res, in     *tensor.Tensor
	ratio       float64
	inZp, outZp int32
	dt          tensor.DType
}

func (a requantArgs) run(lo, hi int) {
	requantRange(a.res, a.in, a.ratio, a.inZp, a.outZp, a.dt, lo, hi)
}

// requantize is the reference semantics of qnn.requantize for one element:
// q_out = roundHalfAway(float64(q_in − zp_in) · ratio) + zp_out, with
// ratio = input_scale/output_scale evaluated in float64.
func requantize(x int32, ratio float64, inZp, outZp int32) int32 {
	return roundHalfAwayF(float64(x-inZp)*ratio) + outZp
}

// requantRange is the requantize inner loop over [lo,hi): widen, rescale,
// re-bias, clamp.
//
//np:hotpath
func requantRange(res, in *tensor.Tensor, ratio float64, inZp, outZp int32, dt tensor.DType, lo, hi int) {
	for i := lo; i < hi; i++ {
		setRaw(res, i, clampToDType(requantize(in.GetRaw(i), ratio, inZp, outZp), dt))
	}
}

func qnnAdd(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	if err := wantArgs(args, 2, "qnn.add"); err != nil {
		return nil, err
	}
	a, b := args[0], args[1]
	lhsScale := attrs.Float("lhs_scale", 1)
	lhsZp := int32(attrs.Int("lhs_zero_point", 0))
	rhsScale := attrs.Float("rhs_scale", 1)
	rhsZp := int32(attrs.Int("rhs_zero_point", 0))
	outScale := attrs.Float("output_scale", 1)
	outZp := int32(attrs.Int("output_zero_point", 0))
	q := qaddArgs{a: a, b: b, res: output(dstBuf, out),
		lhsScale: lhsScale, rhsScale: rhsScale, outScale: outScale, lhsZp: lhsZp, rhsZp: rhsZp, outZp: outZp, dt: out.DType}
	if !a.Shape.Equal(b.Shape) {
		q.bc, q.bcast = newBroadcaster(a.Shape, b.Shape, out.Shape), true
	}
	qaddRegion.Elems(q.res.Elems(), q)
	return q.res, nil
}

var qaddRegion = parallel.NewRegion(qaddArgs.run)

// qaddArgs is qnn.add's chunk; bc is used only with bcast, when the shapes
// differ.
type qaddArgs struct {
	a, b, res                    *tensor.Tensor
	bcast                        bool
	bc                           broadcaster
	lhsScale, rhsScale, outScale float64
	lhsZp, rhsZp, outZp          int32
	dt                           tensor.DType
}

func (q qaddArgs) run(lo, hi int) {
	for i := lo; i < hi; i++ {
		ia, ib := i, i
		if q.bcast {
			ia, ib = q.bc.index(i)
		}
		real := float64(q.lhsScale*float64(q.a.GetRaw(ia)-q.lhsZp)) + float64(q.rhsScale*float64(q.b.GetRaw(ib)-q.rhsZp))
		setRaw(q.res, i, clampToDType(roundHalfAwayF(real/q.outScale)+q.outZp, q.dt))
	}
}

// qnnConcatenate requantizes each field to the output params as it
// concatenates them, straight into the output.
func qnnConcatenate(args []*tensor.Tensor, attrs relay.Attrs, out *relay.TensorType, dstBuf *tensor.Tensor) (*tensor.Tensor, error) {
	q := tensor.QuantParams{
		Scale:     attrs.Float("output_scale", 1),
		ZeroPoint: int32(attrs.Int("output_zero_point", 0)),
	}
	return concatenate(args, attrs, out, dstBuf, &q)
}

// QuantizeLinear is a convenience used by frontends/tests to pick symmetric
// quantization parameters covering [-absMax, absMax].
func QuantizeLinear(absMax float64, dt tensor.DType) tensor.QuantParams {
	if absMax <= 0 {
		absMax = 1
	}
	switch dt {
	case tensor.Int8:
		return tensor.QuantParams{Scale: absMax / 127, ZeroPoint: 0}
	case tensor.UInt8:
		return tensor.QuantParams{Scale: 2 * absMax / 255, ZeroPoint: 128}
	}
	return tensor.QuantParams{Scale: 1}
}

// AbsMax returns max |x| over a float tensor; frontends use it to synthesize
// quantization parameters for pre-quantized model emission.
func AbsMax(t *tensor.Tensor) float64 {
	m := 0.0
	for i, n := 0, t.Elems(); i < n; i++ {
		v := math.Abs(t.GetF(i))
		if v > m {
			m = v
		}
	}
	return m
}

func init() {
	Register("qnn.quantize", qnnQuantize)
	Register("qnn.dequantize", qnnDequantize)
	Register("qnn.requantize", qnnRequantize)
	Register("qnn.add", qnnAdd)
	Register("qnn.concatenate", qnnConcatenate)
}
