package relay

import (
	"fmt"

	"repro/internal/tensor"
)

// Neural-network operator registrations. All spatial operators use NHWC
// activations and OHWI convolution weights (see package tensor).

// ConvOutDim computes one spatial output extent of a convolution/pool:
// floor((in + padBefore + padAfter - effectiveKernel)/stride) + 1.
func ConvOutDim(in, kernel, stride, padBefore, padAfter, dilation int) (int, error) {
	eff := (kernel-1)*dilation + 1
	num := in + padBefore + padAfter - eff
	if num < 0 {
		return 0, fmt.Errorf("kernel %d (dilation %d) larger than padded input %d", kernel, dilation, in+padBefore+padAfter)
	}
	if stride <= 0 {
		return 0, fmt.Errorf("non-positive stride %d", stride)
	}
	return num/stride + 1, nil
}

func inferConv2D(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("nn.conv2d expects 2 args, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.conv2d data")
	if err != nil {
		return nil, err
	}
	weight, err := AsTensorType(args[1], "nn.conv2d weight")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) != 4 || len(weight.Shape) != 4 {
		return nil, fmt.Errorf("nn.conv2d expects 4-D data/weight, got %s / %s", data.Shape, weight.Shape)
	}
	n, h, w, c := data.Shape[0], data.Shape[1], data.Shape[2], data.Shape[3]
	oc, kh, kw, icPerGroup := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	groups := attrs.Int("groups", 1)
	if groups <= 0 {
		return nil, fmt.Errorf("nn.conv2d groups must be positive, got %d", groups)
	}
	if c%groups != 0 || oc%groups != 0 {
		return nil, fmt.Errorf("nn.conv2d channels %d / out %d not divisible by groups %d", c, oc, groups)
	}
	if icPerGroup != c/groups {
		return nil, fmt.Errorf("nn.conv2d weight input channels %d, want %d (=%d/%d)", icPerGroup, c/groups, c, groups)
	}
	sh, sw := attrs.IntPair("strides", 1)
	dh, dw := attrs.IntPair("dilation", 1)
	pad := attrs.Pad4("padding")
	oh, err := ConvOutDim(h, kh, sh, pad[0], pad[2], dh)
	if err != nil {
		return nil, fmt.Errorf("nn.conv2d height: %v", err)
	}
	ow, err := ConvOutDim(w, kw, sw, pad[1], pad[3], dw)
	if err != nil {
		return nil, fmt.Errorf("nn.conv2d width: %v", err)
	}
	if data.DType != tensor.Float32 {
		return nil, fmt.Errorf("nn.conv2d supports float32 only (use qnn.conv2d for %s)", data.DType)
	}
	return TType(tensor.Float32, n, oh, ow, oc), nil
}

func inferDense(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("nn.dense expects 2 args, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.dense data")
	if err != nil {
		return nil, err
	}
	weight, err := AsTensorType(args[1], "nn.dense weight")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) != 2 || len(weight.Shape) != 2 {
		return nil, fmt.Errorf("nn.dense expects 2-D data/weight, got %s / %s", data.Shape, weight.Shape)
	}
	if data.Shape[1] != weight.Shape[1] {
		return nil, fmt.Errorf("nn.dense reduction mismatch: data %s vs weight %s", data.Shape, weight.Shape)
	}
	if data.DType != tensor.Float32 {
		return nil, fmt.Errorf("nn.dense supports float32 only (use qnn.dense for %s)", data.DType)
	}
	return TType(tensor.Float32, data.Shape[0], weight.Shape[0]), nil
}

func inferBiasAdd(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("nn.bias_add expects 2 args, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.bias_add data")
	if err != nil {
		return nil, err
	}
	bias, err := AsTensorType(args[1], "nn.bias_add bias")
	if err != nil {
		return nil, err
	}
	if len(bias.Shape) != 1 {
		return nil, fmt.Errorf("nn.bias_add bias must be 1-D, got %s", bias.Shape)
	}
	axis := attrs.Int("axis", -1)
	if axis < 0 {
		axis += len(data.Shape)
	}
	if axis < 0 || axis >= len(data.Shape) {
		return nil, fmt.Errorf("nn.bias_add axis out of range for %s", data.Shape)
	}
	if data.Shape[axis] != bias.Shape[0] {
		return nil, fmt.Errorf("nn.bias_add channel mismatch: %d vs %d", data.Shape[axis], bias.Shape[0])
	}
	return data, nil
}

// sameTypeElemwise returns args[0]'s type unchanged — the inference rule for
// unary elementwise ops. Quantization parameters propagate with the type,
// implementing the §3.3 pass-through rule at the type level.
func sameTypeElemwise(name string) TypeInferFn {
	return func(args []Type, attrs Attrs) (Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("%s expects 1 arg, got %d", name, len(args))
		}
		if _, err := AsTensorType(args[0], name); err != nil {
			return nil, err
		}
		return args[0], nil
	}
}

func pool2DInfer(name string) TypeInferFn {
	return func(args []Type, attrs Attrs) (Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("%s expects 1 arg, got %d", name, len(args))
		}
		data, err := AsTensorType(args[0], name)
		if err != nil {
			return nil, err
		}
		if len(data.Shape) != 4 {
			return nil, fmt.Errorf("%s expects 4-D NHWC input, got %s", name, data.Shape)
		}
		kh, kw := attrs.IntPair("pool_size", 1)
		sh, sw := attrs.IntPair("strides", 1)
		pad := attrs.Pad4("padding")
		oh, err := ConvOutDim(data.Shape[1], kh, sh, pad[0], pad[2], 1)
		if err != nil {
			return nil, fmt.Errorf("%s height: %v", name, err)
		}
		ow, err := ConvOutDim(data.Shape[2], kw, sw, pad[1], pad[3], 1)
		if err != nil {
			return nil, fmt.Errorf("%s width: %v", name, err)
		}
		out := &TensorType{
			Shape: tensor.Shape{data.Shape[0], oh, ow, data.Shape[3]},
			DType: data.DType,
			Quant: data.Quant, // pooling preserves scale/zero-point
		}
		return out, nil
	}
}

func inferGlobalAvgPool(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("nn.global_avg_pool2d expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.global_avg_pool2d")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) != 4 {
		return nil, fmt.Errorf("nn.global_avg_pool2d expects 4-D NHWC input, got %s", data.Shape)
	}
	return &TensorType{
		Shape: tensor.Shape{data.Shape[0], 1, 1, data.Shape[3]},
		DType: data.DType,
		Quant: data.Quant,
	}, nil
}

func inferSoftmax(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("nn.softmax expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.softmax")
	if err != nil {
		return nil, err
	}
	if data.DType != tensor.Float32 {
		return nil, fmt.Errorf("nn.softmax supports float32 only, got %s", data.DType)
	}
	return data, nil
}

func inferBatchNorm(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 5 {
		return nil, fmt.Errorf("nn.batch_norm expects data,gamma,beta,mean,var (5 args), got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.batch_norm data")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) == 0 {
		return nil, fmt.Errorf("nn.batch_norm on scalar")
	}
	c := data.Shape[len(data.Shape)-1]
	for i, nm := range []string{"gamma", "beta", "moving_mean", "moving_var"} {
		t, err := AsTensorType(args[i+1], "nn.batch_norm "+nm)
		if err != nil {
			return nil, err
		}
		if len(t.Shape) != 1 || t.Shape[0] != c {
			return nil, fmt.Errorf("nn.batch_norm %s must be 1-D of %d channels, got %s", nm, c, t.Shape)
		}
	}
	// Simplification vs. TVM: inference-mode batch_norm yields the normalized
	// tensor directly rather than a (tensor, mean, var) tuple.
	return data, nil
}

func inferPad(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("nn.pad expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.pad")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) != 4 {
		return nil, fmt.Errorf("nn.pad expects 4-D NHWC input, got %s", data.Shape)
	}
	pad := attrs.Pad4("pad_width")
	out := data.Shape.Clone()
	out[1] += pad[0] + pad[2]
	out[2] += pad[1] + pad[3]
	return &TensorType{Shape: out, DType: data.DType, Quant: data.Quant}, nil
}

func inferUpsampling(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("nn.upsampling expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.upsampling")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) != 4 {
		return nil, fmt.Errorf("nn.upsampling expects 4-D NHWC input, got %s", data.Shape)
	}
	scale := attrs.Int("scale", 2)
	if scale < 1 {
		return nil, fmt.Errorf("nn.upsampling scale must be >= 1, got %d", scale)
	}
	out := data.Shape.Clone()
	out[1] *= scale
	out[2] *= scale
	return &TensorType{Shape: out, DType: data.DType, Quant: data.Quant}, nil
}

func inferBatchFlatten(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("nn.batch_flatten expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.batch_flatten")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) == 0 {
		return nil, fmt.Errorf("nn.batch_flatten on scalar")
	}
	rest := 1
	for _, d := range data.Shape[1:] {
		rest *= d
	}
	return &TensorType{Shape: tensor.Shape{data.Shape[0], rest}, DType: data.DType, Quant: data.Quant}, nil
}

func inferLRN(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("nn.lrn expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "nn.lrn")
	if err != nil {
		return nil, err
	}
	if data.DType != tensor.Float32 {
		return nil, fmt.Errorf("nn.lrn supports float32 only")
	}
	return data, nil
}

// YOLO detection-head decode: applies sigmoid to box x/y, objectness and
// class channels for every anchor. Output shape equals input shape. This op
// is deliberately outside the NeuroPilot supported set, reproducing the
// paper's "NeuroPilot-only has no statistics for some models" effect.
func inferYoloOutput(args []Type, attrs Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("vision.yolo_output expects 1 arg, got %d", len(args))
	}
	data, err := AsTensorType(args[0], "vision.yolo_output")
	if err != nil {
		return nil, err
	}
	if len(data.Shape) != 4 {
		return nil, fmt.Errorf("vision.yolo_output expects 4-D NHWC input, got %s", data.Shape)
	}
	anchors := attrs.Int("anchors", 3)
	classes := attrs.Int("classes", 80)
	if data.Shape[3] != anchors*(5+classes) {
		return nil, fmt.Errorf("vision.yolo_output channels %d != anchors*(5+classes) = %d", data.Shape[3], anchors*(5+classes))
	}
	return data, nil
}

// Exported op handles. Grabbing them as package variables both forces
// registration at init time and gives builder code compile-time names.
var (
	OpConv2D        = RegisterOp("nn.conv2d", PatternOutEWiseFusable, inferConv2D)
	OpDense         = RegisterOp("nn.dense", PatternOutEWiseFusable, inferDense)
	OpBiasAdd       = RegisterOp("nn.bias_add", PatternBroadcast, inferBiasAdd)
	OpReLU          = RegisterOp("nn.relu", PatternElemWise, sameTypeElemwise("nn.relu"))
	OpLeakyReLU     = RegisterOp("nn.leaky_relu", PatternElemWise, sameTypeElemwise("nn.leaky_relu"))
	OpSigmoid       = RegisterOp("sigmoid", PatternElemWise, sameTypeElemwise("sigmoid"))
	OpTanh          = RegisterOp("tanh", PatternElemWise, sameTypeElemwise("tanh"))
	OpExp           = RegisterOp("exp", PatternElemWise, sameTypeElemwise("exp"))
	OpSqrt          = RegisterOp("sqrt", PatternElemWise, sameTypeElemwise("sqrt"))
	OpMaxPool2D     = RegisterOp("nn.max_pool2d", PatternInjective, pool2DInfer("nn.max_pool2d"))
	OpAvgPool2D     = RegisterOp("nn.avg_pool2d", PatternInjective, pool2DInfer("nn.avg_pool2d"))
	OpGlobalAvgPool = RegisterOp("nn.global_avg_pool2d", PatternCommReduce, inferGlobalAvgPool)
	OpSoftmax       = RegisterOp("nn.softmax", PatternOpaque, inferSoftmax)
	OpBatchNorm     = RegisterOp("nn.batch_norm", PatternBroadcast, inferBatchNorm)
	OpDropout       = RegisterOp("nn.dropout", PatternElemWise, sameTypeElemwise("nn.dropout"))
	OpPad           = RegisterOp("nn.pad", PatternInjective, inferPad)
	OpUpsampling    = RegisterOp("nn.upsampling", PatternInjective, inferUpsampling)
	OpBatchFlatten  = RegisterOp("nn.batch_flatten", PatternInjective, inferBatchFlatten)
	OpLRN           = RegisterOp("nn.lrn", PatternOpaque, inferLRN)
	OpYoloOutput    = RegisterOp("vision.yolo_output", PatternOpaque, inferYoloOutput)
)
