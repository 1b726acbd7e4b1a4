package nir

import (
	"fmt"

	"repro/internal/neuron"
	"repro/internal/relay"
)

// opHandlerDict is the dictionary of Listing 1: relay operator name → the
// Neuron opcode it lowers to and whatever that lowering needs beyond "one
// operation, attributes copied". Adding NeuroPilot coverage for a new relay
// op means adding one entry here (plus a neuron.opTable row if the opcode is
// new): Supported, the converter, OpcodeOf, device coverage and the registry
// lint all read the entry.
var opHandlerDict = map[string]opHandler{
	"nn.conv2d":  {code: neuron.Conv2D, variant: conv2dOpcode},
	"qnn.conv2d": {code: neuron.Conv2D, variant: conv2dOpcode},
	"nn.dense":   {code: neuron.FullyConnected},
	"qnn.dense":  {code: neuron.FullyConnected},

	"nn.bias_add": {code: neuron.BiasAdd},

	"add":      {code: neuron.Add, check: float32Or8Bit},
	"qnn.add":  {code: neuron.Add},
	"subtract": {code: neuron.Sub, check: float32Or8Bit},
	"multiply": {code: neuron.Mul, check: float32Or8Bit},
	"maximum":  {code: neuron.Max, check: float32Or8Bit},
	"minimum":  {code: neuron.Min, check: float32Or8Bit},

	"nn.relu":    {code: neuron.ReLU},
	"clip":       {code: neuron.Clamp},
	"sigmoid":    {code: neuron.Logistic},
	"tanh":       {code: neuron.TanhOp},
	"nn.softmax": {code: neuron.Softmax},

	"nn.max_pool2d":        {code: neuron.MaxPool2D},
	"nn.avg_pool2d":        {code: neuron.AveragePool2D},
	"nn.global_avg_pool2d": {code: neuron.GlobalAveragePool2D},

	// Neuron's CONCATENATION requantizes internally when input scales
	// differ; each operand carries its own parameters, so the quantized form
	// needs nothing extra.
	"concatenate":     {code: neuron.Concatenation},
	"qnn.concatenate": {code: neuron.Concatenation},

	"reshape":          {code: neuron.Reshape},
	"nn.batch_flatten": {code: neuron.Reshape, create: createBatchFlatten},
	"squeeze":          {code: neuron.Squeeze},
	"expand_dims":      {code: neuron.ExpandDims},
	"transpose":        {code: neuron.Transpose},
	"nn.pad":           {code: neuron.Pad},
	"nn.upsampling":    {code: neuron.ResizeNearest},

	"qnn.quantize":   {code: neuron.Quantize},
	"qnn.dequantize": {code: neuron.Dequantize, create: createDequantize},
	"qnn.requantize": {code: neuron.Requantize},
}

// conv2dOpcode is the one statement of Neuron's grouped-convolution rule:
// standard and depthwise (groups == channels) convolution are distinct
// opcodes, and any other grouping has no Neuron equivalent.
func conv2dOpcode(call *relay.Call) (neuron.OpCode, bool) {
	groups := call.Attrs.Int("groups", 1)
	if groups == 1 {
		return neuron.Conv2D, true
	}
	data, ok := call.Args[0].CheckedType().(*relay.TensorType)
	if !ok || len(data.Shape) != 4 || groups != data.Shape[3] {
		return 0, false
	}
	return neuron.DepthwiseConv2D, true
}

// createBatchFlatten lowers nn.batch_flatten to RESHAPE with an explicit
// target shape (Neuron has no flatten op).
func createBatchFlatten(cv *Converter, code neuron.OpCode, call *relay.Call, entry *NodeEntry) error {
	tt, ok := call.CheckedType().(*relay.TensorType)
	if !ok {
		return fmt.Errorf("batch_flatten result is not a tensor")
	}
	attrs := relay.Attrs{"newshape": []int{tt.Shape[0], tt.Shape[1]}}
	return cv.addSimpleOp(code, call, entry, attrs)
}

// createDequantize makes sure the kernel sees the input scale even when the
// relay frontend left the attrs empty (tensor-carried params take over).
func createDequantize(cv *Converter, code neuron.OpCode, call *relay.Call, entry *NodeEntry) error {
	attrs := call.Attrs.Clone()
	if attrs.Float("input_scale", 0) == 0 {
		if tt, ok := call.Args[0].CheckedType().(*relay.TensorType); ok && tt.Quant != nil {
			attrs["input_scale"] = tt.Quant.Scale
			attrs["input_zero_point"] = int(tt.Quant.ZeroPoint)
		}
	}
	return cv.addSimpleOp(code, call, entry, attrs)
}
