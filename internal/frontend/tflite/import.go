package tflite

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// FromTFLite lowers a parsed model to relay. Quantized operators become
// relay QNN chains (qnn.conv2d → nn.bias_add → qnn.requantize [+ clip for
// fused RELU/RELU6]); float operators map directly. TFLite and this stack
// share the NHWC/OHWI layouts, so no layout conversion is required — only
// the depthwise 1HWC→CHW1 weight permutation.
func FromTFLite(data []byte) (*relay.Module, error) {
	m, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return Lower(m)
}

// Lower converts an in-memory model to relay (exported separately so tests
// and tools can inspect the parsed form).
func Lower(m *Model) (*relay.Module, error) {
	imp := &importer{m: m, values: make([]relay.Expr, len(m.Tensors))}
	var vars []*relay.Var
	for _, ti := range m.Inputs {
		t := m.Tensors[ti]
		tt := &relay.TensorType{Shape: append(tensor.Shape(nil), t.Shape...), DType: t.DType}
		if t.Quant != nil {
			q := *t.Quant
			tt.Quant = &q
		}
		v := relay.NewVar(t.Name, tt)
		imp.values[ti] = v
		vars = append(vars, v)
	}
	for i, op := range m.Operators {
		if err := imp.convert(op); err != nil {
			return nil, fmt.Errorf("tflite: operator %d (opcode %d): %w", i, op.Opcode, err)
		}
	}
	outputs := make([]relay.Expr, len(m.Outputs))
	names := make([]string, len(m.Outputs))
	for i, o := range m.Outputs {
		names[i] = fmt.Sprint("tensor ", o)
		if o >= 0 && o < len(imp.values) {
			outputs[i] = imp.values[o]
		}
	}
	return frontend.Finish("tflite", vars, outputs, names)
}

type importer struct {
	m      *Model
	values []relay.Expr
}

// value materializes tensor ti as a relay expression (constant buffers are
// wrapped on demand).
func (imp *importer) value(ti int) (relay.Expr, error) {
	if ti < 0 || ti >= len(imp.values) {
		return nil, fmt.Errorf("tensor index %d out of range", ti)
	}
	if imp.values[ti] != nil {
		return imp.values[ti], nil
	}
	t := imp.m.Tensors[ti]
	if t.Buffer < 0 || t.Buffer >= len(imp.m.Buffers) {
		return nil, fmt.Errorf("tensor %q (%d) is neither produced nor constant", t.Name, ti)
	}
	val := imp.m.Buffers[t.Buffer]
	if t.Quant != nil {
		val = val.Clone()
		q := *t.Quant
		val.Quant = &q
	}
	c := relay.Const(val)
	imp.values[ti] = c
	return c, nil
}

func (imp *importer) tensorInfo(ti int) Tensor { return imp.m.Tensors[ti] }

func (imp *importer) set(ti int, e relay.Expr) error {
	if _, err := relay.InferTypes(e); err != nil {
		return err
	}
	imp.values[ti] = e
	return nil
}

func (imp *importer) fusedActivation(e relay.Expr, act int) (relay.Expr, error) {
	switch act {
	case ActNone:
		return e, nil
	case ActRelu:
		return relay.NewCall(relay.OpReLU, []relay.Expr{e}, nil), nil
	case ActRelu6:
		return relay.NewCall(relay.OpClip, []relay.Expr{e}, relay.Attrs{"a_min": 0.0, "a_max": 6.0}), nil
	}
	return nil, fmt.Errorf("fused activation %d unsupported", act)
}

func (imp *importer) convert(op Operator) error {
	switch op.Opcode {
	case OpConv2D, OpDepthwiseConv2D:
		return imp.convertConv(op)
	case OpFullyConnected:
		return imp.convertFC(op)
	case OpMaxPool2D, OpAveragePool2D:
		return imp.convertPool(op)
	case OpRelu:
		return imp.unary(op, relay.OpReLU, nil)
	case OpRelu6:
		return imp.unary(op, relay.OpClip, relay.Attrs{"a_min": 0.0, "a_max": 6.0})
	case OpLogistic:
		return imp.convertViaFloat(op, relay.OpSigmoid, nil)
	case OpSoftmax:
		return imp.convertViaFloat(op, relay.OpSoftmax, nil)
	case OpReshape:
		return imp.convertReshape(op)
	case OpConcatenation:
		return imp.convertConcat(op)
	case OpAdd:
		return imp.convertAdd(op)
	case OpQuantize:
		return imp.convertQuantize(op)
	case OpDequantize:
		return imp.convertDequantize(op)
	case OpPad:
		return imp.convertPad(op)
	case OpMean:
		return imp.convertMean(op)
	case OpResizeNearest:
		return imp.convertResize(op)
	}
	return fmt.Errorf("builtin operator %d not supported by the importer", op.Opcode)
}

func (imp *importer) unary(op Operator, ro *relay.Op, attrs relay.Attrs) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	return imp.set(op.Outputs[0], relay.NewCall(ro, []relay.Expr{x}, attrs))
}

// convertViaFloat lowers transcendental ops on quantized tensors through a
// dequantize → op → quantize sandwich (TVM's QNN legalization for LOGISTIC /
// SOFTMAX); float tensors map directly.
func (imp *importer) convertViaFloat(op Operator, ro *relay.Op, attrs relay.Attrs) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	inT := imp.tensorInfo(op.Inputs[0])
	outT := imp.tensorInfo(op.Outputs[0])
	if inT.Quant == nil {
		return imp.set(op.Outputs[0], relay.NewCall(ro, []relay.Expr{x}, attrs))
	}
	deq := relay.NewCall(relay.OpQnnDequantize, []relay.Expr{x}, relay.Attrs{
		"input_scale": inT.Quant.Scale, "input_zero_point": int(inT.Quant.ZeroPoint)})
	f := relay.NewCall(ro, []relay.Expr{deq}, attrs)
	if outT.Quant == nil {
		return imp.set(op.Outputs[0], f)
	}
	q := relay.NewCall(relay.OpQnnQuantize, []relay.Expr{f}, relay.Attrs{
		"output_scale": outT.Quant.Scale, "output_zero_point": int(outT.Quant.ZeroPoint),
		"out_dtype": outT.DType.String()})
	return imp.set(op.Outputs[0], q)
}

// permute1HWCtoCHW1 converts TFLite depthwise weights to the stack's layout.
func permute1HWCtoCHW1(w *tensor.Tensor) *tensor.Tensor {
	kh, kw, c := w.Shape[1], w.Shape[2], w.Shape[3]
	out := tensor.New(w.DType, tensor.Shape{c, kh, kw, 1})
	if w.Quant != nil {
		q := *w.Quant
		out.Quant = &q
	}
	for y := 0; y < kh; y++ {
		for x := 0; x < kw; x++ {
			for ch := 0; ch < c; ch++ {
				src := (y*kw+x)*c + ch
				dst := (ch*kh+y)*kw + x
				switch w.DType {
				case tensor.Float32:
					out.F32()[dst] = w.F32()[src]
				default:
					v := w.GetRaw(src)
					switch w.DType {
					case tensor.UInt8:
						out.U8()[dst] = uint8(v)
					case tensor.Int8:
						out.I8()[dst] = int8(v)
					}
				}
			}
		}
	}
	return out
}

func (imp *importer) convertConv(op Operator) error {
	if len(op.Inputs) < 2 {
		return fmt.Errorf("conv expects data, weight[, bias]")
	}
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	dataT := imp.tensorInfo(op.Inputs[0])
	weightT := imp.tensorInfo(op.Inputs[1])
	if weightT.Buffer < 0 {
		return fmt.Errorf("conv weight must be constant")
	}
	wTensor := imp.m.Buffers[weightT.Buffer]
	if weightT.Quant != nil {
		wTensor = wTensor.Clone()
		q := *weightT.Quant
		wTensor.Quant = &q
	}
	groups := 1
	if op.Opcode == OpDepthwiseConv2D {
		if op.optInt("depth_multiplier", 1) != 1 {
			return fmt.Errorf("depth_multiplier != 1 unsupported")
		}
		wTensor = permute1HWCtoCHW1(wTensor)
		groups = wTensor.Shape[0]
	}
	kh, kw := wTensor.Shape[1], wTensor.Shape[2]
	sh := op.optInt("stride_h", 1)
	sw := op.optInt("stride_w", 1)
	var pad []int
	if op.optInt("padding", PaddingSame) == PaddingSame {
		pad = frontend.SamePad(dataT.Shape[1], dataT.Shape[2], kh, kw, sh, sw)
	} else {
		pad = []int{0, 0}
	}
	attrs := relay.Attrs{"strides": []int{sh, sw}, "padding": pad, "groups": groups}

	quantized := dataT.Quant != nil && weightT.Quant != nil
	var conv relay.Expr
	if quantized {
		attrs["input_scale"] = dataT.Quant.Scale
		attrs["input_zero_point"] = int(dataT.Quant.ZeroPoint)
		attrs["kernel_scale"] = weightT.Quant.Scale
		attrs["kernel_zero_point"] = int(weightT.Quant.ZeroPoint)
		conv = relay.NewCall(relay.OpQnnConv2D, []relay.Expr{x, relay.Const(wTensor)}, attrs)
	} else {
		conv = relay.NewCall(relay.OpConv2D, []relay.Expr{x, relay.Const(wTensor)}, attrs)
	}
	out := conv
	if len(op.Inputs) >= 3 && op.Inputs[2] >= 0 {
		bias, err := imp.value(op.Inputs[2])
		if err != nil {
			return err
		}
		out = relay.NewCall(relay.OpBiasAdd, []relay.Expr{out, bias}, nil)
	}
	outT := imp.tensorInfo(op.Outputs[0])
	if quantized {
		if outT.Quant == nil {
			return fmt.Errorf("quantized conv output tensor %q has no quant params", outT.Name)
		}
		out = relay.NewCall(relay.OpQnnRequantize, []relay.Expr{out}, relay.Attrs{
			"input_scale":       dataT.Quant.Scale * weightT.Quant.Scale,
			"input_zero_point":  0,
			"output_scale":      outT.Quant.Scale,
			"output_zero_point": int(outT.Quant.ZeroPoint),
			"out_dtype":         outT.DType.String(),
		})
	}
	act, err := imp.fusedActivation(out, op.optInt("fused_activation_function", ActNone))
	if err != nil {
		return err
	}
	return imp.set(op.Outputs[0], act)
}

func (imp *importer) convertFC(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	dataT := imp.tensorInfo(op.Inputs[0])
	weightT := imp.tensorInfo(op.Inputs[1])
	if len(dataT.Shape) != 2 {
		// TFLite implicitly flattens.
		x = relay.NewCall(relay.OpBatchFlatten, []relay.Expr{x}, nil)
	}
	w, err := imp.value(op.Inputs[1])
	if err != nil {
		return err
	}
	quantized := dataT.Quant != nil && weightT.Quant != nil
	var fc relay.Expr
	if quantized {
		fc = relay.NewCall(relay.OpQnnDense, []relay.Expr{x, w}, relay.Attrs{
			"input_scale": dataT.Quant.Scale, "input_zero_point": int(dataT.Quant.ZeroPoint),
			"kernel_scale": weightT.Quant.Scale, "kernel_zero_point": int(weightT.Quant.ZeroPoint),
		})
	} else {
		fc = relay.NewCall(relay.OpDense, []relay.Expr{x, w}, nil)
	}
	out := fc
	if len(op.Inputs) >= 3 && op.Inputs[2] >= 0 {
		bias, err := imp.value(op.Inputs[2])
		if err != nil {
			return err
		}
		out = relay.NewCall(relay.OpBiasAdd, []relay.Expr{out, bias}, nil)
	}
	outT := imp.tensorInfo(op.Outputs[0])
	if quantized {
		if outT.Quant == nil {
			return fmt.Errorf("quantized FC output %q has no quant params", outT.Name)
		}
		out = relay.NewCall(relay.OpQnnRequantize, []relay.Expr{out}, relay.Attrs{
			"input_scale":       dataT.Quant.Scale * weightT.Quant.Scale,
			"input_zero_point":  0,
			"output_scale":      outT.Quant.Scale,
			"output_zero_point": int(outT.Quant.ZeroPoint),
			"out_dtype":         outT.DType.String(),
		})
	}
	act, err := imp.fusedActivation(out, op.optInt("fused_activation_function", ActNone))
	if err != nil {
		return err
	}
	return imp.set(op.Outputs[0], act)
}

func (imp *importer) convertPool(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	dataT := imp.tensorInfo(op.Inputs[0])
	kh := op.optInt("filter_height", 2)
	kw := op.optInt("filter_width", 2)
	sh := op.optInt("stride_h", 2)
	sw := op.optInt("stride_w", 2)
	var pad []int
	if op.optInt("padding", PaddingValid) == PaddingSame {
		pad = frontend.SamePad(dataT.Shape[1], dataT.Shape[2], kh, kw, sh, sw)
	} else {
		pad = []int{0, 0}
	}
	ro := relay.OpMaxPool2D
	if op.Opcode == OpAveragePool2D {
		ro = relay.OpAvgPool2D
	}
	return imp.set(op.Outputs[0], relay.NewCall(ro, []relay.Expr{x}, relay.Attrs{
		"pool_size": []int{kh, kw}, "strides": []int{sh, sw}, "padding": pad}))
}

func (imp *importer) convertReshape(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	shape := op.IntListOptions["new_shape"]
	if shape == nil {
		return fmt.Errorf("reshape without new_shape")
	}
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpReshape, []relay.Expr{x},
		relay.Attrs{"newshape": append([]int(nil), shape...)}))
}

func (imp *importer) convertConcat(op Operator) error {
	fields := make([]relay.Expr, len(op.Inputs))
	quantized := false
	for i, ti := range op.Inputs {
		e, err := imp.value(ti)
		if err != nil {
			return err
		}
		fields[i] = e
		if imp.tensorInfo(ti).Quant != nil {
			quantized = true
		}
	}
	axis := op.optInt("axis", -1)
	outT := imp.tensorInfo(op.Outputs[0])
	if quantized {
		if outT.Quant == nil {
			return fmt.Errorf("quantized concat output %q has no quant params", outT.Name)
		}
		return imp.set(op.Outputs[0], relay.NewCall(relay.OpQnnConcatenate,
			[]relay.Expr{relay.NewTuple(fields)}, relay.Attrs{
				"axis":              axis,
				"output_scale":      outT.Quant.Scale,
				"output_zero_point": int(outT.Quant.ZeroPoint),
			}))
	}
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpConcatenate,
		[]relay.Expr{relay.NewTuple(fields)}, relay.Attrs{"axis": axis}))
}

func (imp *importer) convertAdd(op Operator) error {
	a, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	b, err := imp.value(op.Inputs[1])
	if err != nil {
		return err
	}
	aT := imp.tensorInfo(op.Inputs[0])
	bT := imp.tensorInfo(op.Inputs[1])
	outT := imp.tensorInfo(op.Outputs[0])
	var out relay.Expr
	if aT.Quant != nil && bT.Quant != nil {
		if outT.Quant == nil {
			return fmt.Errorf("quantized add output %q has no quant params", outT.Name)
		}
		out = relay.NewCall(relay.OpQnnAdd, []relay.Expr{a, b}, relay.Attrs{
			"lhs_scale": aT.Quant.Scale, "lhs_zero_point": int(aT.Quant.ZeroPoint),
			"rhs_scale": bT.Quant.Scale, "rhs_zero_point": int(bT.Quant.ZeroPoint),
			"output_scale": outT.Quant.Scale, "output_zero_point": int(outT.Quant.ZeroPoint),
		})
	} else {
		out = relay.NewCall(relay.OpAdd, []relay.Expr{a, b}, nil)
	}
	act, err := imp.fusedActivation(out, op.optInt("fused_activation_function", ActNone))
	if err != nil {
		return err
	}
	return imp.set(op.Outputs[0], act)
}

func (imp *importer) convertQuantize(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	outT := imp.tensorInfo(op.Outputs[0])
	if outT.Quant == nil {
		return fmt.Errorf("QUANTIZE output %q has no quant params", outT.Name)
	}
	inT := imp.tensorInfo(op.Inputs[0])
	if inT.Quant != nil {
		// Re-quantization form.
		return imp.set(op.Outputs[0], relay.NewCall(relay.OpQnnRequantize, []relay.Expr{x}, relay.Attrs{
			"input_scale": inT.Quant.Scale, "input_zero_point": int(inT.Quant.ZeroPoint),
			"output_scale": outT.Quant.Scale, "output_zero_point": int(outT.Quant.ZeroPoint),
			"out_dtype": outT.DType.String(),
		}))
	}
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpQnnQuantize, []relay.Expr{x}, relay.Attrs{
		"output_scale": outT.Quant.Scale, "output_zero_point": int(outT.Quant.ZeroPoint),
		"out_dtype": outT.DType.String(),
	}))
}

func (imp *importer) convertDequantize(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	inT := imp.tensorInfo(op.Inputs[0])
	attrs := relay.Attrs{}
	if inT.Quant != nil {
		attrs["input_scale"] = inT.Quant.Scale
		attrs["input_zero_point"] = int(inT.Quant.ZeroPoint)
	}
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpQnnDequantize, []relay.Expr{x}, attrs))
}

func (imp *importer) convertPad(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	pads := op.IntListOptions["paddings"]
	if pads == nil {
		return fmt.Errorf("PAD without paddings")
	}
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpPad, []relay.Expr{x},
		relay.Attrs{"pad_width": append([]int(nil), pads...)}))
}

func (imp *importer) convertMean(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	axes := op.IntListOptions["axis"]
	inT := imp.tensorInfo(op.Inputs[0])
	// Spatial mean over NHWC [1,2] with quantized input lowers to global
	// average pooling (which preserves quant params) + reshape.
	if len(axes) == 2 && axes[0] == 1 && axes[1] == 2 && len(inT.Shape) == 4 {
		gap := relay.NewCall(relay.OpGlobalAvgPool, []relay.Expr{x}, nil)
		return imp.set(op.Outputs[0], relay.NewCall(relay.OpBatchFlatten, []relay.Expr{gap}, nil))
	}
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpMean, []relay.Expr{x},
		relay.Attrs{"axis": append([]int(nil), axes...), "keepdims": op.optInt("keep_dims", 0) == 1}))
}

func (imp *importer) convertResize(op Operator) error {
	x, err := imp.value(op.Inputs[0])
	if err != nil {
		return err
	}
	scale := op.optInt("scale", 2)
	return imp.set(op.Outputs[0], relay.NewCall(relay.OpUpsampling, []relay.Expr{x},
		relay.Attrs{"scale": scale, "method": "nearest"}))
}
