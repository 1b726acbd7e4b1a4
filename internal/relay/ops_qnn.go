package relay

import (
	"fmt"

	"repro/internal/tensor"
)

// QNN (quantized neural network) operator registrations, mirroring TVM's
// relay.qnn dialect. QNN is *operator-oriented*: quantization parameters
// appear as attributes on each qnn.* call (input_scale, kernel_scale,
// output_zero_point, ...). The Neuron IR on the other side of the BYOC
// boundary is *tensor-oriented* — every operand carries its own params. The
// type-inference rules here additionally stamp the resulting params into the
// checked TensorType so the converter (internal/nir) can read them off every
// edge; that is the mechanism behind the paper's §3.3 QNN augmentation.

func qnnOutDType(attrs Attrs, def tensor.DType) (tensor.DType, error) {
	s := attrs.Str("out_dtype", "")
	if s == "" {
		return def, nil
	}
	dt, err := tensor.ParseDType(s)
	if err != nil {
		return 0, err
	}
	return dt, nil
}

func inferQnnQuantize(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("qnn.quantize expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "qnn.quantize")
	if err != nil {
		return nil, err
	}
	if data.DType != tensor.Float32 {
		return nil, fmt.Errorf("qnn.quantize input must be float32, got %s", data.DType)
	}
	dt, err := qnnOutDType(attrs, tensor.UInt8)
	if err != nil {
		return nil, err
	}
	if !dt.IsQuantized() {
		return nil, fmt.Errorf("qnn.quantize out_dtype must be int8/uint8, got %s", dt)
	}
	scale := attrs.Float("output_scale", 0)
	if scale <= 0 {
		return nil, fmt.Errorf("qnn.quantize requires positive output_scale, got %g", scale)
	}
	q := tensor.QuantParams{Scale: scale, ZeroPoint: int32(attrs.Int("output_zero_point", 0))}
	return &TensorType{Shape: data.Shape, DType: dt, Quant: &q}, nil
}

func inferQnnDequantize(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("qnn.dequantize expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "qnn.dequantize")
	if err != nil {
		return nil, err
	}
	if !data.DType.IsQuantized() && data.DType != tensor.Int32 {
		return nil, fmt.Errorf("qnn.dequantize input must be quantized, got %s", data.DType)
	}
	return &TensorType{Shape: data.Shape, DType: tensor.Float32}, nil
}

func inferQnnRequantize(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("qnn.requantize expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "qnn.requantize")
	if err != nil {
		return nil, err
	}
	if !data.DType.IsQuantized() && data.DType != tensor.Int32 {
		return nil, fmt.Errorf("qnn.requantize input must be quantized/int32, got %s", data.DType)
	}
	if attrs.Float("input_scale", 0) <= 0 || attrs.Float("output_scale", 0) <= 0 {
		return nil, fmt.Errorf("qnn.requantize requires positive input_scale and output_scale")
	}
	dt, err := qnnOutDType(attrs, tensor.UInt8)
	if err != nil {
		return nil, err
	}
	if !dt.IsQuantized() {
		return nil, fmt.Errorf("qnn.requantize out_dtype must be int8/uint8, got %s", dt)
	}
	q := tensor.QuantParams{
		Scale:     attrs.Float("output_scale", 0),
		ZeroPoint: int32(attrs.Int("output_zero_point", 0)),
	}
	return &TensorType{Shape: data.Shape, DType: dt, Quant: &q}, nil
}

// CheckQnnZeroPoints is the zero-point rule of qnn.conv2d, qnn.dense and
// their fused forms: input_zero_point and kernel_zero_point must be values
// of the data and the weight dtype, which must be 8-bit. Every (raw − zp) is
// then within ±255, which the quantized kernels' int16 panels rely on. The
// type relations, the Neuron model checker and the kernels all apply it.
func CheckQnnZeroPoints(op string, data, weight tensor.DType, attrs Attrs) error {
	for _, zp := range [2]struct {
		attr string
		dt   tensor.DType
	}{{"input_zero_point", data}, {"kernel_zero_point", weight}} {
		if !zp.dt.IsQuantized() {
			return fmt.Errorf("%s: %s applies to %s, not an 8-bit type", op, zp.attr, zp.dt)
		}
		v, lo, hi := attrs.Int(zp.attr, 0), 0, 255
		if zp.dt == tensor.Int8 {
			lo, hi = -128, 127
		}
		if v < lo || v > hi {
			return fmt.Errorf("%s: %s %d is outside the %s range [%d, %d]", op, zp.attr, v, zp.dt, lo, hi)
		}
	}
	return nil
}

func inferQnnConv2D(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("qnn.conv2d expects 2 args, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "qnn.conv2d data")
	if err != nil {
		return nil, err
	}
	weight, err := AsTensorType(args[1], "qnn.conv2d weight")
	if err != nil {
		return nil, err
	}
	if !data.DType.IsQuantized() || !weight.DType.IsQuantized() {
		return nil, fmt.Errorf("qnn.conv2d requires quantized data/weight, got %s / %s", data.DType, weight.DType)
	}
	if err := CheckQnnZeroPoints("qnn.conv2d", data.DType, weight.DType, attrs); err != nil {
		return nil, err
	}
	inScale := attrs.Float("input_scale", 0)
	kScale := attrs.Float("kernel_scale", 0)
	if inScale <= 0 || kScale <= 0 {
		return nil, fmt.Errorf("qnn.conv2d requires positive input_scale/kernel_scale")
	}
	// Spatial arithmetic is identical to float conv2d; reuse it by faking a
	// float data type pair.
	fData := &TensorType{Shape: data.Shape, DType: tensor.Float32}
	fWeight := &TensorType{Shape: weight.Shape, DType: tensor.Float32}
	out, err := inferConv2D([]Type{fData, fWeight}, attrs)
	if err != nil {
		return nil, fmt.Errorf("qnn.conv2d: %v", err)
	}
	ot := out.(*TensorType)
	// Accumulator output: int32 with scale = Si*Sk, zero point 0 (TVM
	// convention); a following qnn.requantize narrows back to 8 bits.
	return &TensorType{
		Shape: ot.Shape,
		DType: tensor.Int32,
		Quant: &tensor.QuantParams{Scale: inScale * kScale, ZeroPoint: 0},
	}, nil
}

func inferQnnDense(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("qnn.dense expects 2 args, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "qnn.dense data")
	if err != nil {
		return nil, err
	}
	weight, err := AsTensorType(args[1], "qnn.dense weight")
	if err != nil {
		return nil, err
	}
	if !data.DType.IsQuantized() || !weight.DType.IsQuantized() {
		return nil, fmt.Errorf("qnn.dense requires quantized data/weight, got %s / %s", data.DType, weight.DType)
	}
	if err := CheckQnnZeroPoints("qnn.dense", data.DType, weight.DType, attrs); err != nil {
		return nil, err
	}
	if len(data.Shape) != 2 || len(weight.Shape) != 2 || data.Shape[1] != weight.Shape[1] {
		return nil, fmt.Errorf("qnn.dense shape mismatch: %s vs %s", data.Shape, weight.Shape)
	}
	inScale := attrs.Float("input_scale", 0)
	kScale := attrs.Float("kernel_scale", 0)
	if inScale <= 0 || kScale <= 0 {
		return nil, fmt.Errorf("qnn.dense requires positive input_scale/kernel_scale")
	}
	return &TensorType{
		Shape: tensor.Shape{data.Shape[0], weight.Shape[0]},
		DType: tensor.Int32,
		Quant: &tensor.QuantParams{Scale: inScale * kScale, ZeroPoint: 0},
	}, nil
}

func inferQnnAdd(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("qnn.add expects 2 args, got %d", len(args))
	}
	a, err := AsTensorType(args[0], "qnn.add lhs")
	if err != nil {
		return nil, err
	}
	b, err := AsTensorType(args[1], "qnn.add rhs")
	if err != nil {
		return nil, err
	}
	if !a.DType.IsQuantized() || a.DType != b.DType {
		return nil, fmt.Errorf("qnn.add requires matching quantized dtypes, got %s / %s", a.DType, b.DType)
	}
	shape, err := BroadcastShapes(a.Shape, b.Shape)
	if err != nil {
		return nil, fmt.Errorf("qnn.add: %v", err)
	}
	for _, k := range []string{"lhs_scale", "rhs_scale", "output_scale"} {
		if attrs.Float(k, 0) <= 0 {
			return nil, fmt.Errorf("qnn.add requires positive %s", k)
		}
	}
	q := tensor.QuantParams{
		Scale:     attrs.Float("output_scale", 0),
		ZeroPoint: int32(attrs.Int("output_zero_point", 0)),
	}
	return &TensorType{Shape: shape, DType: a.DType, Quant: &q}, nil
}

func inferQnnConcatenate(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("qnn.concatenate expects 1 tuple arg, got %d", len(args))
	}
	out, err := inferConcatenateShapeOnly(args[0], attrs)
	if err != nil {
		return nil, err
	}
	if attrs.Float("output_scale", 0) <= 0 {
		return nil, fmt.Errorf("qnn.concatenate requires positive output_scale")
	}
	q := tensor.QuantParams{
		Scale:     attrs.Float("output_scale", 0),
		ZeroPoint: int32(attrs.Int("output_zero_point", 0)),
	}
	out.Quant = &q
	return out, nil
}

// inferConcatenateShapeOnly reuses the float concatenate shape logic while
// ignoring the per-field quant agreement requirement.
func inferConcatenateShapeOnly(arg Type, attrs Attrs) (*TensorType, error) {
	tup, ok := arg.(*TupleType)
	if !ok {
		return nil, fmt.Errorf("qnn.concatenate expects a tuple argument, got %s", arg)
	}
	stripped := make([]Type, len(tup.Fields))
	for i, f := range tup.Fields {
		t, err := AsTensorType(f, fmt.Sprintf("qnn.concatenate field %d", i))
		if err != nil {
			return nil, err
		}
		stripped[i] = &TensorType{Shape: t.Shape, DType: t.DType, Quant: nil}
	}
	// Temporarily treat fields as unquantized for the shape computation.
	base := make([]Type, len(stripped))
	for i := range stripped {
		st := stripped[i].(*TensorType)
		base[i] = &TensorType{Shape: st.Shape, DType: tensor.Float32}
	}
	out, err := inferConcatenate([]Type{&TupleType{Fields: base}}, attrs)
	if err != nil {
		return nil, err
	}
	ot := out.(*TensorType)
	return &TensorType{Shape: ot.Shape, DType: stripped[0].(*TensorType).DType}, nil
}

// inferQnnFusedBias validates the optional absorbed bias operand of a fused
// qnn anchor: a rank-1 int32 vector matching the output-channel count.
func inferQnnFusedBias(arg Type, channels int, op string) error {
	bias, err := AsTensorType(arg, op+" bias")
	if err != nil {
		return err
	}
	if bias.DType != tensor.Int32 {
		return fmt.Errorf("%s bias must be int32, got %s", op, bias.DType)
	}
	if len(bias.Shape) != 1 || bias.Shape[0] != channels {
		return fmt.Errorf("%s bias shape %s does not match %d output channels", op, bias.Shape, channels)
	}
	return nil
}

// inferQnnFusedOut narrows a fused anchor's int32 accumulator type to the
// requantized output described by the absorbed requant_* attributes.
func inferQnnFusedOut(acc *TensorType, attrs Attrs, op string) (Type, error) {
	if attrs.Float("requant_input_scale", 0) <= 0 || attrs.Float("requant_output_scale", 0) <= 0 {
		return nil, fmt.Errorf("%s requires positive requant_input_scale and requant_output_scale", op)
	}
	dt := tensor.UInt8
	if s := attrs.Str("requant_out_dtype", ""); s != "" {
		var err error
		if dt, err = tensor.ParseDType(s); err != nil {
			return nil, err
		}
	}
	if !dt.IsQuantized() {
		return nil, fmt.Errorf("%s requant_out_dtype must be int8/uint8, got %s", op, dt)
	}
	q := tensor.QuantParams{
		Scale:     attrs.Float("requant_output_scale", 0),
		ZeroPoint: int32(attrs.Int("requant_output_zero_point", 0)),
	}
	return &TensorType{Shape: acc.Shape, DType: dt, Quant: &q}, nil
}

// Fused anchors: qnn.conv2d / qnn.dense with the following bias_add,
// requantize and activation absorbed into a single launch (the Neuron
// fusion pass emits these; topi/fused.go holds the kernels). Output is the
// requantized 8-bit tensor rather than the int32 accumulator.
func inferQnnConv2DFused(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, fmt.Errorf("qnn.conv2d_fused expects 2 or 3 args, got %d", len(args))
	}
	out, err := inferQnnConv2D(args[:2], attrs)
	if err != nil {
		return nil, err
	}
	acc := out.(*TensorType)
	if len(args) == 3 {
		if err := inferQnnFusedBias(args[2], acc.Shape[3], "qnn.conv2d_fused"); err != nil {
			return nil, err
		}
	}
	return inferQnnFusedOut(acc, attrs, "qnn.conv2d_fused")
}

func inferQnnDenseFused(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, fmt.Errorf("qnn.dense_fused expects 2 or 3 args, got %d", len(args))
	}
	out, err := inferQnnDense(args[:2], attrs)
	if err != nil {
		return nil, err
	}
	acc := out.(*TensorType)
	if len(args) == 3 {
		if err := inferQnnFusedBias(args[2], acc.Shape[1], "qnn.dense_fused"); err != nil {
			return nil, err
		}
	}
	return inferQnnFusedOut(acc, attrs, "qnn.dense_fused")
}

var (
	OpQnnQuantize    = RegisterOp("qnn.quantize", PatternElemWise, inferQnnQuantize)
	OpQnnDequantize  = RegisterOp("qnn.dequantize", PatternElemWise, inferQnnDequantize)
	OpQnnRequantize  = RegisterOp("qnn.requantize", PatternElemWise, inferQnnRequantize)
	OpQnnConv2D      = RegisterOp("qnn.conv2d", PatternOutEWiseFusable, inferQnnConv2D)
	OpQnnDense       = RegisterOp("qnn.dense", PatternOutEWiseFusable, inferQnnDense)
	OpQnnAdd         = RegisterOp("qnn.add", PatternBroadcast, inferQnnAdd)
	OpQnnConcatenate = RegisterOp("qnn.concatenate", PatternInjective, inferQnnConcatenate)

	OpQnnConv2DFused = RegisterOp("qnn.conv2d_fused", PatternOutEWiseFusable, inferQnnConv2DFused)
	OpQnnDenseFused  = RegisterOp("qnn.dense_fused", PatternOutEWiseFusable, inferQnnDenseFused)
)
